"""List the output files in which two crossmoji source trees differ.

    python3 scripts/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the `crossmoji` package (a
checkout's `src`).  For the `planted` and `feed` inputs of
`bench/workloads.py`, seeds 1 and 2, the script writes the inputs once,
runs `python -m crossmoji.cli all` on them from each tree and compares
every file of the two output directories byte for byte, except
`manifest.json`, whose stage keys hash the package's own code.  It also
compares the manifests' warning lists and the CLI lines, with timings
and the output path masked.  It prints one line per difference and exits
1 if there is any, else 0.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import write_feed, write_planted  # noqa: E402

CASES = [(name, write, seed) for name, write in (("planted", write_planted),
                                                 ("feed", write_feed)) for seed in (1, 2)]


def run_all(src: Path, config: Path, out: Path) -> list[str]:
    """The CLI's lines for one `all` run, timings and `out` masked."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "crossmoji.cli", "all", "--config", str(config),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{src}: crossmoji all failed on {config}:\n{proc.stderr}")
    return [re.sub(r"\d+(\.\d+)?s$", "<t>s", line).replace(str(out), "<out>")
            for line in proc.stdout.splitlines()]


def files(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def warnings(out: Path) -> list[str]:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return manifest["warnings"] + [w for stage in manifest["stages"].values()
                                   for w in stage["warnings"]]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    parent, change = (Path(a).resolve() for a in argv)
    for src in (parent, change):
        if not (src / "crossmoji" / "cli.py").is_file():
            sys.exit(f"{src} holds no crossmoji package")
    differing = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, write, seed in CASES:
            case = Path(tmp) / f"{name}-{seed}"
            config = write(case / "inputs", seed).config
            outs = [case / "parent", case / "change"]
            lines = [run_all(src, config, out) for src, out in zip((parent, change), outs)]
            got = [files(out) for out in outs]
            differing += [f"{case.name}: {path}" for path in sorted(got[0].keys() | got[1].keys())
                          if got[0].get(path) != got[1].get(path)]
            if lines[0] != lines[1]:
                differing.append(f"{case.name}: CLI lines")
            if warnings(outs[0]) != warnings(outs[1]):
                differing.append(f"{case.name}: manifest.json warnings")
            print(f"{case.name}: {len(got[1])} files compared", file=sys.stderr)
    print("\n".join(differing) if differing else "no differing output")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
