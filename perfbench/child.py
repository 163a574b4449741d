"""Runs one pagegrowth command in a fresh process and writes how it went as JSON.

    python3 child.py RESULT_JSON SRC_DIR MODE [ARGV...]

MODE is ``plain`` (run ``pagegrowth.cli.main(ARGV)``) or ``traced`` (the
same under the tracer).
The package is imported from SRC_DIR, the checkout under test. The time
spent importing ``pagegrowth.cli`` is the program's set-up.
"""

import json
import resource
import sys
import time
import traceback


def main() -> int:
    result_path, src_dir, mode, *argv = sys.argv[1:]
    sys.path.insert(0, src_dir)
    t_import = time.perf_counter()
    import pagegrowth.cli

    t_imported = time.perf_counter()
    out = {"import_s": t_imported - t_import, "module": pagegrowth.cli.__file__}
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_main = time.perf_counter()
    raised = False
    try:
        rc = pagegrowth.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        traceback.print_exc()
        rc, raised = 1, True
    t_done = time.perf_counter()
    out.update(rc=rc, traceback=raised, run_s=t_done - t_main)
    if tracer is not None:
        out["trace"] = tracer.record(t_main, t_done)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.flush()
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
