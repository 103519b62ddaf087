"""Time one fresh-interpreter set-up of a workload.

    python3 linkbench/setup_probe.py '{"src": ..., "out": ..., "validate": [...], "warm": [...]}'

The clock starts before ``import fomlink`` (numpy's import included) and
stops after `fomlink validate` has passed every scenario file in
``validate`` and `fomlink simulate` has run every one-trial file in
``warm``, which fills the constellation and matched-filter caches.  The last
line of output is ``{"setup_s": ...}``.  Exits 1 if any command fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main(argv: list[str]) -> int:
    job = json.loads(argv[0])
    start = time.perf_counter()
    sys.path.insert(0, job["src"])
    import fomlink.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        for path in job["validate"]:
            if cli.main(["validate", "--config", path]) != 0:
                print(f"setup_probe: validate rejected {path}", file=sys.stderr)
                return 1
    for path in job["warm"]:
        if cli.main(["simulate", "--config", path, "--out", job["out"]]) != 0:
            print(f"setup_probe: simulate failed on {path}", file=sys.stderr)
            return 1
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
