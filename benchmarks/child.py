"""One workload invocation in a fresh interpreter, as a user would pay for it.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds `src` (the directory that holds the treeohm package),
`calls` (argument lists for treeohm.cli.main, run in order), `trace` (rebind
layer spans before the first call) and `result` (where to write the timings).
After the calls, and after the peak resident memory is read, it runs the
calibration kernel (see calibrate.py).  Exits 0 only when every call
returned 0.
"""

import json
import os
import resource
import sys
import time

import calibrate


def _peak_rss_kib() -> int:
    """Peak resident memory of this process's own address space.

    getrusage's ru_maxrss is not used: after fork and exec it starts from
    the parent's resident size, so it would report bench.py's
    memory whenever that is larger than the workload's.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = spec["src"]
    sys.path.insert(0, src)
    import treeohm
    from treeohm import cli

    if os.path.dirname(os.path.dirname(os.path.realpath(treeohm.__file__))) != src:
        print(f"child: imported treeohm from {treeohm.__file__}, not {src}",
              file=sys.stderr)
        return 4
    recorder = None
    run = cli.main
    if spec["trace"]:
        import spans

        recorder = spans.install(treeohm)
        run = recorder.wrap("cli.main", cli.main)

    main_start = time.monotonic()
    codes = []
    call_s = []
    for argv in spec["calls"]:
        t0 = time.perf_counter()
        codes.append(run(argv))
        call_s.append(time.perf_counter() - t0)
    peak_rss_kib = _peak_rss_kib()
    result = {
        "main_start": main_start,
        "codes": codes,
        "call_s": call_s,
        "peak_rss_kib": peak_rss_kib,
        "calibration_s": calibrate.kernel(),
    }
    if recorder is not None:
        result.update(recorder.snapshot())
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
