"""The repository benchmark: closed-loop SmallBank workloads against the
serving stack, with a correctness gate.

Run from the repository root::

    python3 perfbench/run.py --workload durable-long --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (from spans recorded around calls into each layer) and
the tracing overhead.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every correctness check passed.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

import metrics
from spans import write_spans
from stats import median, percentile, supported_tail

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
"""Where the run's temporary logs and span files go (git-ignored)."""


def declared(section: str) -> dict:
    """``{name: unit}`` of one metric section of ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def result_line(attempted: int, failed: int, values: dict,
                units: dict) -> str:
    """The final line of a run whose correctness checks all passed."""
    if set(values) != set(units):
        raise RuntimeError(
            f"computed metrics {sorted(set(values) ^ set(units))} do not "
            f"match BENCHMARK.json"
        )
    return json.dumps(
        {
            "correct": True,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": units[name]}
                for name in units
            },
        }
    )


def print_breakdown(values: dict, traced: list) -> None:
    """Each busy and self time as a share of the time the clients (or
    the replay) spent inside root spans (medians over traced
    episodes)."""
    roots = median([
        sum(s.duration for s in e.tracer.spans if s.parent < 0)
        for e in traced
    ])
    print(f"trace: wall {values['trace.wall_s']:.3f} s, root spans "
          f"{roots:.3f} s per episode:")
    for key in sorted(values):
        if key.endswith(("busy_s", "self_s")) and values[key]:
            print(f"  {key:28s} {values[key]:9.4f} s "
                  f"{values[key] / roots * 100:6.1f}% of root spans")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    """Run episodes of one workload for ``seconds``; print the result
    line and return the exit code."""
    from workloads import SETTINGS, WORKLOADS, GateFailure

    OUT_DIR.mkdir(exist_ok=True)
    episode_fn = WORKLOADS[name]
    print(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                      "trace": trace, **SETTINGS[name]}))
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    try:
        while (
            not untraced
            or (trace and not traced)
            or time.perf_counter() < deadline
        ):
            is_traced = trace and index % 2 == 1
            metrics.reset_peak_rss()
            episode = episode_fn(seed, index, is_traced, str(OUT_DIR))
            episode.peak_rss_mb = metrics.peak_rss_mb()
            (traced if is_traced else untraced).append(episode)
            print(
                f"episode {index}{' traced' if is_traced else ''}: "
                f"{episode.done} done in {episode.wall_s:.3f} s "
                f"({episode.rate:.1f}/s), set-up {episode.setup_s:.4f} s",
                flush=True,
            )
            index += 1
            gc.collect()
        episodes = untraced + traced
        fingerprints = {e.fingerprint for e in episodes}
        if len(fingerprints) != 1:
            raise GateFailure("episodes of one seed saw different inputs")
    except GateFailure as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    samples = [x for e in untraced for x in e.latencies]
    tail = supported_tail(len(samples))
    print(f"latency samples: {len(samples)}; highest percentile with >= 10 "
          f"samples beyond it: p{tail} = "
          f"{percentile(samples, tail) * 1e3:.4g} ms")
    if trace:
        values = metrics.per_layer(untraced, traced)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
        write_spans(str(spans_path), [e.tracer for e in traced])
        print(f"spans written to {spans_path}")
        print_breakdown(values, traced)
        units = declared("per_layer")
    else:
        values = metrics.end_to_end(untraced)
        units = declared("end_to_end")
    for key in units:
        print(f"{key} = {values[key]:.6g} {units[key]}")
    print(result_line(attempted, failed, values, units))
    return 0


def run_all(names, seed: int, seconds: int, trace: bool) -> int:
    """Every workload, each in its own process (so each one's peak RSS
    is its own)."""
    status = 0
    for name in names:
        print(f"== {name}", flush=True)
        code = subprocess.call([
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
        ])
        if code != 0:
            print(f"{name} failed with exit code {code}", file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    source = ROOT / "src" / "repro"
    if not (source / "__init__.py").is_file():
        print(f"cannot find the program's source at {source}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds,
                       bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
