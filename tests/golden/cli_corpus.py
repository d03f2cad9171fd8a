"""Golden corpus of the command line: one line per invocation.

    PYTHONPATH=src python tests/golden/cli_corpus.py           # print the lines
    PYTHONPATH=src python tests/golden/cli_corpus.py --write   # and record the hashes

Every subcommand runs through `pathideal.cli.main` in both formats on small
cells: ZERO cells, a SKIPPED `ass`, `persistence --n 8 --t 3 --kmax 4`,
`astab --n 7 --t 3 --kmax 5`, grid scans from small config files, and
arguments and configs that exit 2.  Each line holds the arguments, the exit
code and stdout with every `wall_time_ms` line removed (the one field that
varies between runs); scan report files go to a temporary directory and are
not pinned, since stdout repeats them.  One sha256 per section is kept in
cli.sha256.json, which test_golden.py checks.  A changed hash is a
changed output: it needs a reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from decomposition_corpus import run

from pathideal.cli import main

HASHES = Path(__file__).with_name("cli.sha256.json")
FORMATS = ("text", "structured")

CONFIGS = {
    "small": {"t_values": [2, 3], "n_range": [3, 7], "k_range": [1, 2]},
    "witness": {"t_values": [3], "n_range": [5, 8], "k_range": [2, 3], "method": "witness-only"},
    "over-cap": {"n_range": [20, 26]},
    "bad-key": {"threads": 2},
}

COMMANDS = {
    "gen": [
        "gen --n 5 --t 2",
        "gen --n 3 --t 3",
    ],
    "predict": [
        "predict --n 8 --t 3 --k 3",
        "predict --n 6 --t 3 --k 2",
        "predict --n 4 --t 3 --k 2",
    ],
    "decompose": [
        "decompose --n 4 --t 2 --k 2",
        "decompose --n 7 --t 3 --k 2",
        "decompose --n 3 --t 3 --k 2",
    ],
    "ass": [
        "ass --n 7 --t 3 --k 3",
        "ass --n 9 --t 4 --k 3 --method witness",
        "ass --n 6 --t 1 --k 2",
        "ass --n 3 --t 3 --k 1",
        "ass --n 13 --t 4 --k 3 --budget 0.01",
        "ass --n 5 --t 2 --k 2 --budget nan",
        "ass --n 25 --t 3 --k 1",
    ],
    "persistence": [
        "persistence --n 8 --t 3 --kmax 4",
        "persistence --n 5 --t 2 --kmax 3",
        "persistence --n 3 --t 3 --kmax 2",
        "persistence --n 5 --t 2 --kmax 1",
    ],
    "astab": [
        "astab --n 7 --t 3 --kmax 5",
        "astab --n 5 --t 2 --kmax 4",
        "astab --n 6 --t 3 --kmax 2",
        "astab --n 3 --t 3 --kmax 2",
    ],
    "scan": [f"scan --config {{{name}}}" for name in CONFIGS],
}


def _invoke(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one run of `main`; stderr is not pinned."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    return code, out.getvalue()


def _line(command: str, code: int, stdout: str) -> str:
    kept = [line for line in stdout.splitlines() if '"wall_time_ms"' not in line]
    return f"{command} -> {code} | " + "\\n".join(kept)


def sections() -> dict[str, list[str]]:
    """Every section's lines, in a fixed order."""
    corpus: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, config in CONFIGS.items():
            paths[name] = Path(tmp, f"{name}.json")
            paths[name].write_text(json.dumps(config), encoding="utf-8")
        for section, commands in COMMANDS.items():
            lines = []
            for command in commands:
                for fmt in FORMATS:
                    argv = command.format(**paths).split() + ["--format", fmt]
                    if section == "scan":
                        argv += ["--out", str(Path(tmp, "report.json"))]
                    shown = command.format(**{name: f"{name}.json" for name in CONFIGS})
                    lines.append(_line(f"{shown} --format {fmt}", *_invoke(argv)))
            corpus[section] = lines
    return corpus


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:], __doc__, sections, HASHES))
