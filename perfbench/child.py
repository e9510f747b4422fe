"""Run one qproj CLI command in this fresh interpreter, as a user's call does.

Usage: python3 child.py RESULT_JSON TRACE ARGV...

Prints the command's output and exits with its code, as ``qproj`` does;
an uncaught exception prints its traceback and exits 1, as Python does.
RESULT_JSON receives the ``time.monotonic()`` reading taken once
``qproj.cli`` is imported (the parent subtracts its own reading taken
before the spawn), the seconds spent in ``cli.run``, the peak RSS and,
with TRACE 1, the spans and counts of the outside-in recorder.
"""

import time

import qproj.cli as cli

IMPORTED = time.monotonic()

import json  # noqa: E402  (kept out of the import-time measurement)
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def peak_rss_kb() -> int:
    """This process's own peak RSS.

    ru_maxrss would also count the parent's pages this process held
    between the spawn and exec, so VmHWM is read where Linux offers it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    recorder = None
    if trace:
        import spans
        recorder = spans.Recorder()
        recorder.install()
    record = {"imported": IMPORTED}
    code = 1
    try:
        start = time.perf_counter()
        try:
            result = cli.run(argv)
        finally:
            record["run_s"] = time.perf_counter() - start
        if result.text:
            print(result.text)
        if result.error:
            print(result.error, file=sys.stderr)
        code = result.exit_code
    except Exception:
        traceback.print_exc()
    finally:
        record["maxrss_kb"] = peak_rss_kb()
        if recorder is not None:
            record.update(recorder.as_dict())
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
