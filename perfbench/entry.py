"""Fresh-process entry points for the benchmark.

    entry.py <out.json> cli <blowuplab arguments...>
        Runs blowuplab.cli.main as the installed `blowuplab` console script
        does and exits with its code. Writes the peak RSS of this process
        and of its reaped children (sweep pool workers) to out.json.

    entry.py <out.json> replay sweep <config> <out_dir> <workers>
    entry.py <out.json> replay validate <config>
    entry.py <out.json> replay oracle-setup
        Traced replay in a fresh interpreter. `import blowuplab.cli` is the
        first span; the spans, counts and peak RSS go to out.json. Root
        spans have no parent; run.py assigns the operation id and roots
        them under the operation's span.

    entry.py <out.json> oracle-setup
        The untraced oracle set-up: import plus the sphere quadratures.

The peak is read from VmHWM because a process started from a large
parent inherits that parent's RSS in ru_maxrss.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def peak_rss_mb() -> float:
    own = None
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1]) * 1024
    except OSError:
        pass
    if own is None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    return max(own, children) / 1e6


def replay(kind: str, args: list[str]) -> dict:
    from spans import Tracer

    tr = Tracer("entry")
    with tr.span("import.blowuplab"):
        import blowuplab.cli  # noqa: F401
    import replay as rp

    result: dict = {}
    if kind == "sweep":
        config_path, out_dir = args[0], args[1]
        with tr.span("config.load_config"):
            config = rp.config_mod.load_config(config_path)
        _, points = rp.sweep(tr, config, out_dir, max_parallel=int(args[2]))
        result["points"] = points
    elif kind == "validate":
        result["passed"] = rp.validate(tr, args[0])
    elif kind == "oracle-setup":
        rp.quadratures(tr)
    else:
        raise SystemExit(f"unknown replay {kind!r}")
    result.update(tr.dump())
    result["t_start"] = T_START
    return result


def main() -> int:
    out_path, mode, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    result: dict = {}
    code = 0
    try:
        if mode == "cli":
            from blowuplab.cli import main as blowuplab_main

            code = blowuplab_main(args)
        elif mode == "oracle-setup":
            import blowuplab.cli  # noqa: F401
            import replay as rp
            from spans import NullTracer

            rp.quadratures(NullTracer())
        elif mode == "replay":
            result = replay(args[0], args[1:])
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        result["t_done"] = time.perf_counter()
        result["peak_rss_mb"] = peak_rss_mb()
        with open(out_path, "w") as f:
            json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
