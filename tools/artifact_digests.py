"""Write the standard artifact set for one config and print a sha256 per file.

Runs every artifact-writing command on the config, each into its own
subdirectory of OUT (best empty), and prints one `sha256  path` line per
written file, with paths relative to OUT and sorted.  Two checkouts are compared by
running each one's package on the same config and diffing the listings:

    PYTHONPATH=src python tools/artifact_digests.py --config configs/gcw_twin.json /tmp/a > a.txt
    PYTHONPATH=other/src python tools/artifact_digests.py --config configs/gcw_twin.json /tmp/b > b.txt
    diff a.txt b.txt

Exits non-zero if any command fails.
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

from cascadeshare import cli

# subdirectory -> command line, without --config and --out-dir
COMMANDS = {
    "optimize": ["optimize"],
    "optimize_grid200": ["optimize", "--grid", "200"],
    "optimize_budget45": ["optimize", "--budget-mJ", "45"],
    "optimize_lambda1": ["optimize", "--lambda", "1"],  # no stage continues: thresholds are written as null
    "check": ["check"],
    "simulate": ["simulate", "--trials", "100000", "--seed", "7", "--dump-trials"],
    "simulate_no_sharing": ["simulate", "--no-sharing", "--trials", "1000", "--seed", "3", "--dump-trials"],
    "simulate_lambda1": ["simulate", "--lambda", "1", "--trials", "1000", "--seed", "3", "--dump-trials"],
    "twin": ["twin"],
    "twin_trials": ["twin", "--trials", "2000", "--seed", "3"],
    "twin_budget50": ["twin", "--budget-mJ", "50"],
    "sweep": ["sweep"],
    "sweep_budget50": ["sweep", "--budget-mJ", "50"],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="system config JSON")
    parser.add_argument("out", type=Path, help="directory for the artifacts")
    args = parser.parse_args(argv)
    for name, command in COMMANDS.items():
        # each command prints a status line; the listing is this tool's only stdout
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*command, "--config", args.config, "--out-dir", str(args.out / name)])
        if code != 0:
            sys.stderr.write(f"{name}: exit {code}\n")
            return 1
    for path in sorted(p for p in args.out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(args.out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
