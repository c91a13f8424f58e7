"""Run one pkgforge CLI stage in this process with every layer wrapped.

Usage: traced_stage.py TRACE_JSON -- <pkgforge cli arguments>

Times a fresh ``import pkgforge.cli``, installs the tracer, calls
``pkgforge.cli.main`` and writes the import time, the in-process stage
time, the exit code and the per-function summary to TRACE_JSON. The
source tree must already be on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from tracer import Tracer, install_all


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    out_path, cli_args = argv[0], argv[2:]

    start = perf_counter()
    import pkgforge.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    install_all(tracer)
    start = perf_counter()
    code = pkgforge.cli.main(cli_args)
    stage_s = perf_counter() - start
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"import_s": import_s, "stage_s": stage_s, "exit_code": code,
             "main_thread_s": tracer.main_thread_s, "functions": tracer.summary()},
            fh,
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
