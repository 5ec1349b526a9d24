"""Regenerate `expected.json`: the primitive moduli the workloads draw from,
and the sha256 digest of every CLI output for every instance a seed can draw.

Run from the repository root, on the code whose outputs are the reference:

    python3 perfbench/record.py

Digests pin the rule that default outputs stay byte-identical, so re-record
only when an output is meant to change, and say so in the change.  A command
that fails or reports `ok: false` aborts the recording.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import workloads as wl


def primitive_moduli(gfield, p: int, d: int) -> list:
    """Every monic primitive polynomial of degree d over F_p, as the
    comma-separated little-endian list `--modulus` takes, in the candidate
    order of gfield.find_primitive_modulus."""
    out = []
    for k in range(p ** d):
        coeffs = [(k // p ** i) % p for i in range(d)] + [1]
        if gfield.is_primitive(coeffs, p):
            out.append(",".join(map(str, coeffs)))
    return out


def main() -> int:
    os.chdir(wl.ROOT)
    os.makedirs(wl.WORK_DIR, exist_ok=True)
    pkg = wl.load_package()
    moduli = {f"{p}^{d}": primitive_moduli(pkg.gfield, p, d) for p, d in wl.MODULUS_FIELDS}
    digests = {}
    for workload, commands in wl.COMMANDS.items():
        choices = wl.slot_choices(workload, moduli)
        # Commands that share a slot tuple run in sequence (verify reads build's file).
        for slots, group in itertools.groupby(commands, key=lambda c: c.slots):
            group = list(group)
            for combo in itertools.product(*(choices[s] for s in slots)):
                values = dict(zip(slots, combo))
                for cmd in group:
                    res = wl.call_cli(pkg.cli, cmd.argv(values))
                    key = cmd.digest_key(values)
                    problems = wl.check_cli(res)
                    if not problems:
                        # Checked as in a benchmark run, against the digest being recorded.
                        got = (wl.sha256_file(wl.ROUNDTRIP_FILE) if cmd.output == "file"
                               else wl.sha256_text(res.stdout))
                        problems = wl.check_command(cmd, res, got)
                    if problems:
                        sys.stderr.write(f"{key}: {problems}\n")
                        return 1
                    digests[key] = got
                    sys.stderr.write(f"{key}\n")
    text = json.dumps({"moduli": moduli, "digests": digests}, indent=1, sort_keys=True)
    wl.EXPECTED_FILE.write_text(text + "\n", encoding="utf-8")
    sys.stderr.write(f"recorded {len(digests)} digests\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
