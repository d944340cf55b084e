"""One benchmark child: import the CLI, note when set-up ended, run it.

Usage: child.py REPORT MODE [CLI ARGS...]

MODE is ``run`` (plain run), ``trace`` (run with span wrappers installed) or
``probe`` (stop once set-up has ended).  REPORT receives a JSON object with
``setup_done`` (the ``time.monotonic()`` reading just before ``cli.run`` is
entered, comparable with the parent's clock), and in a traced run the spans
and counters.  The exit code is the CLI's.
"""

import json
import sys
import time


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from hellrank import cli

    run = cli.run
    tracer = None
    if mode == "trace":
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
        run = tracer.wrap(run, "cli.run")
    report = {"setup_done": time.monotonic()}
    code = 0 if mode == "probe" else run(argv)
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counters"] = tracer.counters
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
