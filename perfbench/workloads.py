"""The four benchmark workloads: instance draw, set-up, timed jobs, checks.

A seed draws each instance's primitive modulus and its parameter set I from
`expected.json`.  Component sizes and the Delsarte histogram depend only on
(q, m), so the work a workload does is the same for every seed.  I is always
a single element: PI words are dense and J words sparse, so the size of I
would change the cost of word-to-matrix and of the geometry checks.

CLI outputs are checked against sha256 digests recorded for every instance
a seed can draw (see `record.py`); in-memory outputs are checked against
closed forms (see `oracle.py`).

Paths are relative to the repository root, which `run.py` makes the
working directory, so CLI reports that echo a file name stay
byte-identical wherever the checkout lives.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import oracle

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"
WORK_DIR = "perfbench/_work"
ROUNDTRIP_FILE = f"{WORK_DIR}/cli_roundtrip.json"

WORKLOADS = ("orbit_large", "exhaustive_scan", "cli_roundtrip", "geometry_cmp")

# (p, degree) of every field a workload draws a modulus for.
MODULUS_FIELDS = ((5, 4), (3, 3), (2, 8), (5, 3), (3, 4))

PACKAGE_MODULES = (
    "gfield", "linalg", "linforms", "codes", "codefile", "geometry",
    "cmp_family", "cli",
)


def load_package() -> SimpleNamespace:
    """Import dickson_mrd from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dickson_mrd" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found under {src}")
    sys.path.insert(0, str(src))
    import importlib

    mods = {name: importlib.import_module(f"dickson_mrd.{name}")
            for name in PACKAGE_MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: dickson_mrd imported from outside {src}")
    return SimpleNamespace(**mods)


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _ints(text: str) -> List[int]:
    return [int(t) for t in text.split(",")]


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------

def slot_choices(workload: str, moduli: Dict[str, List[str]]) -> Dict[str, List[str]]:
    """Every value each drawn slot of a workload can take, in a fixed order."""
    if workload == "orbit_large":
        return {"modulus": moduli["5^4"], "I": ["2", "3", "4"]}
    if workload == "exhaustive_scan":
        return {"modulus": moduli["3^3"], "I": ["2"]}
    if workload == "cli_roundtrip":
        return {"modulus": moduli["2^8"], "I": ["g85", "g170"]}
    if workload == "geometry_cmp":
        return {
            "mod33": moduli["3^3"],
            "mod53": moduli["5^3"],
            "I53": ["2", "3", "4"],
            "mod34": moduli["3^4"],
            "I_cmp5": ["2", "3", "4"],
            "I_cmp4": ["g21", "g42"],
            "a5": ["2", "3", "4"],
        }
    raise ValueError(f"unknown workload {workload!r}")


def draw(workload: str, seed: int, moduli: Dict[str, List[str]]) -> Dict[str, str]:
    """The instance a seed selects: one value per slot, the same on every call."""
    rng = random.Random(f"{workload}:{seed}")
    return {slot: rng.choice(choices)
            for slot, choices in slot_choices(workload, moduli).items()}


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------

@dataclass
class Job:
    name: str
    metric: str                          # end-to-end metric the job's time adds to
    run: Callable[[], object]
    check: Callable[[object], List[str]]  # problems with the output, or []


@dataclass
class CliResult:
    code: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str]  # exception that escaped cli.main, if any


def call_cli(cli, argv: Sequence[str]) -> CliResult:
    """Run `cli.main(argv)` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # every escape is a failed job, never a crash
            error = f"{type(exc).__name__}: {exc}"
    return CliResult(code, out.getvalue(), err.getvalue(), error)


@dataclass(frozen=True)
class Command:
    """A timed CLI job whose output is checked against a recorded digest."""

    job: str
    metric: str
    slots: Tuple[str, ...]
    argv: Callable[[Dict[str, str]], List[str]]
    output: str = "stdout"                 # what is digested: stdout or file
    min_distance: Optional[int] = None     # verify jobs: expected verdict

    def digest_key(self, values: Dict[str, str]) -> str:
        drawn = " ".join(f"{s}={values[s]}" for s in self.slots)
        return f"{' '.join(self.argv(values))} # {drawn}"


def _geometry(p: int, m: int, mod_slot: str, set_slot: Optional[str]):
    def argv(v):
        return ["geometry", "--p", str(p), "--h", "1", "--m", str(m),
                "--modulus", v[mod_slot], "--set", v[set_slot] if set_slot else "2",
                "--sample", "10000"]
    return argv


COMMANDS: Dict[str, Tuple[Command, ...]] = {
    "cli_roundtrip": (
        Command("build", "build_s", ("modulus", "I"),
                lambda v: ["build", "--p", "2", "--h", "2", "--m", "4",
                           "--modulus", v["modulus"], "--set", v["I"],
                           "--out", ROUNDTRIP_FILE],
                output="file"),
        Command("verify", "verify_s", ("modulus", "I"),
                lambda v: ["verify", ROUNDTRIP_FILE, "--mode", "orbit",
                           "--threads", "1"],
                min_distance=3),
    ),
    "geometry_cmp": (
        Command("geometry_3_3", "geometry_s", ("mod33",), _geometry(3, 3, "mod33", None)),
        Command("geometry_5_3", "geometry_s", ("mod53", "I53"),
                _geometry(5, 3, "mod53", "I53")),
        Command("geometry_3_4", "geometry_s", ("mod34",), _geometry(3, 4, "mod34", None)),
        Command("cmp_5", "cmp_s", ("I_cmp5",),
                lambda v: ["cmp", "--p", "5", "--h", "1", "--set", v["I_cmp5"],
                           "--threads", "1"]),
        Command("cmp_4", "cmp_s", ("I_cmp4",),
                lambda v: ["cmp", "--p", "2", "--h", "2", "--set", v["I_cmp4"],
                           "--threads", "1"]),
        Command("splash_5", "cmp_s", ("a5",),
                lambda v: ["splash", "--p", "5", "--h", "1", "--a", v["a5"]]),
    ),
}


def check_cli(res: CliResult, want_code: int = 0) -> List[str]:
    if res.error is not None:
        return [f"cli.main raised {res.error}"]
    if res.code != want_code:
        return [f"exit code {res.code}, expected {want_code}: {res.stderr.strip()[:200]}"]
    if "Traceback" in res.stderr:
        return ["traceback on stderr"]
    return []


def check_command(cmd: Command, res: CliResult, want_digest: Optional[str]) -> List[str]:
    """Exit code 0, `ok: true`, the expected verdict and the recorded digest."""
    problems = check_cli(res)
    if problems:
        return problems
    if cmd.output == "file":
        got = sha256_file(ROUNDTRIP_FILE)
    else:
        got = sha256_text(res.stdout)
        payload = json.loads(res.stdout)
        if payload.get("ok") is not True:
            problems.append(f"report ok is {payload.get('ok')!r}")
        if cmd.min_distance is not None:
            problems += oracle.check_report(payload["distance"], cmd.min_distance, "orbit")
    if want_digest is None:
        problems.append("no digest recorded for this instance")
    elif got != want_digest:
        problems.append(f"sha256 {got[:12]} != recorded {want_digest[:12]}")
    return problems


def setup_inputs(workload: str, values: Dict[str, str], pkg) -> dict:
    """Field contexts and the codes that in-memory jobs take as input."""
    if workload == "orbit_large":
        ctx = pkg.gfield.make_field(5, 1, 4, _ints(values["modulus"]))
        return {"family": pkg.codes.build_family(ctx, _ints(values["I"]))}
    if workload == "exhaustive_scan":
        ctx = pkg.gfield.make_field(3, 1, 3, _ints(values["modulus"]))
        return {"family": pkg.codes.build_family(ctx, _ints(values["I"])),
                "gabidulin": pkg.codes.build_gabidulin(ctx, 1)}
    return {}


def timed_jobs(workload: str, values: Dict[str, str], inputs: dict, pkg,
               digests: Dict[str, str]) -> List[Job]:
    codes = pkg.codes
    if workload == "orbit_large":
        fam = inputs["family"]
        return [Job("verify_orbit", "verify_s",
                    lambda: codes.verify_mrd(fam, mode="orbit", threads=1).as_dict(),
                    lambda r: oracle.check_report(r, 3, "orbit"))]
    if workload == "exhaustive_scan":
        fam, gab = inputs["family"], inputs["gabidulin"]
        seen: dict = {}

        def check_serial(h):
            seen["serial"] = h
            return oracle.check_histogram(h, 3, 3, 2)

        def check_parallel(h):
            problems = oracle.check_histogram(h, 3, 3, 2)
            if h != seen.get("serial"):
                problems.append("threads=2 histogram differs from threads=1")
            return problems

        return [
            Job("verify_family_bruteforce", "verify_s",
                lambda: codes.verify_mrd(fam, mode="bruteforce", threads=1).as_dict(),
                lambda r: oracle.check_report(r, 2, "bruteforce")),
            Job("verify_gabidulin_bruteforce", "verify_s",
                lambda: codes.verify_mrd(gab, mode="bruteforce", threads=1).as_dict(),
                lambda r: oracle.check_report(r, 2, "bruteforce")),
            Job("distdist_threads1", "distdist_s",
                lambda: codes.distance_distribution(fam, threads=1), check_serial),
            Job("distdist_threads2", "distdist_parallel_s",
                lambda: codes.distance_distribution(fam, threads=2), check_parallel),
        ]
    return [
        Job(cmd.job, cmd.metric,
            lambda argv=cmd.argv(values): call_cli(pkg.cli, argv),
            lambda res, cmd=cmd: check_command(
                cmd, res, digests.get(cmd.digest_key(values))))
        for cmd in COMMANDS[workload]
    ]


# ----------------------------------------------------------------------
# adversarial jobs (cli_roundtrip, untimed)
# ----------------------------------------------------------------------

TAMPERED_FILE = f"{WORK_DIR}/tampered.json"
MALFORMED_FILE = f"{WORK_DIR}/malformed.json"


def write_adversarial_files(pkg) -> None:
    """The q=3, m=3 family file with one non-representative PI word swapped
    for (2, 0, 2), which lies at rank distance 1 from another PI word; and
    the same file without its "field" key."""
    cf = pkg.codefile
    ctx = pkg.gfield.make_field(3, 1, 3)
    d = cf.code_to_dict(pkg.codes.build_family(ctx, [2]))
    pi = next(c for c in d["components"] if c["kind"] == "PI")
    rep = cf.word_to_lists(ctx, pkg.codes.pi_generator(ctx, cf.element_from_list(ctx, pi["a"])))
    i = max(k for k, w in enumerate(pi["words"]) if w != rep)
    pi["words"][i] = cf.word_to_lists(ctx, (2, 0, 2))
    cf.write_json(TAMPERED_FILE, d)
    del d["field"]
    cf.write_json(MALFORMED_FILE, d)


def adversarial_jobs(pkg) -> List[Job]:
    def check_tampered(res: CliResult) -> List[str]:
        problems = check_cli(res, want_code=1)
        if not problems:
            got = json.loads(res.stdout)["distance"]["min_distance"]
            if got != 1:
                problems.append(f"min_distance {got}, expected 1")
        return problems

    argv = ["--mode", "orbit", "--threads", "1"]
    return [
        Job("tampered_file", "adversarial",
            lambda: call_cli(pkg.cli, ["verify", TAMPERED_FILE] + argv), check_tampered),
        Job("malformed_file", "adversarial",
            lambda: call_cli(pkg.cli, ["verify", MALFORMED_FILE] + argv),
            lambda res: check_cli(res, want_code=2)),
    ]
