#!/usr/bin/env python3
"""Per-layer table of one traced jobbench run.

Reads the span file a traced run writes (one per workload) and derives
every per-layer metric from it: the op and volume counters each traced
job returned in JobResult (embedded as the program's own metrics JSON),
and the spans the benchmark recorded around each layer's public calls.

    python3 jobbench/layers.py .bench_build/jobbench-work/traces/wc_freq.json

Every value is a mean per traced job (counters) or per replay (spans).
A ratio is the quotient of the two means printed beside it, so the table
can be recomputed by hand from the file.
"""

import json
import statistics
import sys


def _ops(job):
    return job["metrics"]["work"]["ops_ns"]


def _vol(job):
    return job["metrics"]["work"]["volumes"]


def _op(name):
    return lambda job: _ops(job).get(name, 0)


def _volume(name):
    return lambda job: _vol(job)[name]


def _par(name):
    return lambda job: job["metrics"]["intra_map_parallelism"][name]


def _wall_s(name):
    return lambda job: job["metrics"]["wall_ns"][name] / 1e9


def _final_threshold(job):
    tasks = job["metrics"]["map_task_details"]
    return statistics.median(t["final_spill_threshold"] for t in tasks) if tasks else 0.0


def _sum_ops(*names):
    return lambda job: sum(_ops(job).get(n, 0) for n in names)


def _engine_overhead_s(job):
    wall = job["metrics"]["wall_ns"]
    return (wall["job"] - wall["map_phase"] - wall["reduce_phase"]) / 1e9


# Base quantities per traced job: name -> (unit, layer, extractor).
JOB_VALUES = {
    "map_user.ns": ("ns", "text/apps", _op("map_user")),
    "input_records": ("count", "io", _volume("input_records")),
    "read.ns": ("ns", "io", _op("map_read")),
    "input_bytes": ("B", "io", _volume("input_bytes")),
    "emit.ns": ("ns", "mr.spill_buffer", _op("emit")),
    "map_output_records": ("count", "mr.spill_buffer", _volume("map_output_records")),
    "freqbuf.hits": ("count", "freqbuf", _volume("freq_hits")),
    "freqbuf.table_ns": ("ns", "freqbuf", _op("freq_table")),
    "freqbuf.flush_records": ("count", "freqbuf", _volume("freq_flushes")),
    "sketch.profile_ns": ("ns", "sketch", _op("profile")),
    "hash_combine.hits": ("count", "mr.hash_combine", _volume("hash_combine_hits")),
    "hash_combine.flushes": ("count", "mr.hash_combine", _volume("hash_combine_flushes")),
    "hash_combine.demotions": ("count", "mr.hash_combine", _volume("hash_combine_demotions")),
    "sort.ns": ("ns", "mr.spill_sorter", _op("sort")),
    "spill_input_records": ("count", "mr.spill_sorter", _volume("spill_input_records")),
    "combine.ns": ("ns", "mr.spill_sorter", _op("combine")),
    "spilled_records": ("count", "mr.spill_sorter", _volume("spilled_records")),
    "map_thread.idle_ns": ("ns", "spillmatch", _par("map_thread_idle_ns")),
    "map_thread.wall_ns": ("ns", "spillmatch", _par("map_thread_wall_ns")),
    "support_thread.idle_ns": ("ns", "spillmatch", _par("support_thread_idle_ns")),
    "support_thread.wall_ns": ("ns", "spillmatch", _par("support_thread_wall_ns")),
    "spillmatch.final_threshold": ("fraction", "spillmatch", _final_threshold),
    "spill.count": ("count", "spillmatch", _volume("spill_count")),
    "spilled_bytes": ("B", "io.spill_file", _volume("spilled_bytes")),
    "spill_write.ns": ("ns", "io.spill_file", _op("spill_write")),
    "merge.ns": ("ns", "mr.merger", _op("merge")),
    "merge_combine.ns": ("ns", "mr.merger", _op("merge_combine")),
    "shuffle.ns": ("ns", "cluster.shuffle", _op("shuffle")),
    "shuffled_bytes": ("B", "cluster.shuffle", _volume("shuffled_bytes")),
    "shuffle.wire_bytes": ("B", "cluster.shuffle", _volume("shuffled_wire_bytes")),
    "reduce_merge.ns": ("ns", "mr.reduce_task", _op("reduce_merge")),
    "reduce_user.ns": ("ns", "mr.reduce_task", _op("reduce_user")),
    "output_write.ns": ("ns", "mr.reduce_task", _op("output_write")),
    "output_bytes": ("B", "mr.reduce_task", _volume("output_bytes")),
    "phase.map_wall_s": ("s", "engine", _wall_s("map_phase")),
    "phase.reduce_wall_s": ("s", "mr.reduce_task", _wall_s("reduce_phase")),
    "reduce.partition_skew_ratio": (
        "ratio", "mr.reduce_task",
        lambda job: job["metrics"]["partition_skew"]["partition_skew_ratio"]),
    "engine.job_wall_s": ("s", "engine", _wall_s("job")),
    "engine.overhead_s": ("s", "engine", _engine_overhead_s),
    "tasks.attempts": ("count", "engine", lambda job: job["metrics"]["task_attempts"]),
    "tasks.retried": ("count", "engine", lambda job: job["metrics"]["tasks_retried"]),
    "work.total_ns": ("ns", "all", lambda job: job["metrics"]["work"]["total_ns"]),
    "map_side.ns": ("ns", "mr+freqbuf",
                    _sum_ops("emit", "sort", "combine", "freq_table", "profile")),
    "shuffle_reduce.ns": ("ns", "cluster+mr.reduce_task",
                          _sum_ops("shuffle", "reduce_merge", "reduce_user", "output_write")),
}

# Base quantities per replay, from the benchmark's spans.
SPAN_VALUES = {
    "span.tokenize.ns": ("ns", "text"),
    "span.tokenize.bytes": ("B", "text"),
    "span.line_read.ns": ("ns", "io"),
    "span.line_read.bytes": ("B", "io"),
    "span.shuffle_fetch.ms": ("ms", "cluster.shuffle"),
    "span.shuffle_fetch.mb": ("MB", "cluster.shuffle"),
    "span.map_task.self_ms": ("ms", "mr.map_task"),
    "span.reduce_task.self_ms": ("ms", "mr.reduce_task"),
    "span.replay.ms": ("ms", "bench"),
    "span.replay.self_ms": ("ms", "bench"),
}

# Ratios: name -> (unit, numerator, denominator, scale).
RATIOS = {
    "map_user.ns_per_input_record": ("ns/record", "map_user.ns", "input_records", 1),
    "span.tokenize.ns_per_byte": ("ns/B", "span.tokenize.ns", "span.tokenize.bytes", 1),
    "read.ns_per_input_byte": ("ns/B", "read.ns", "input_bytes", 1),
    "span.line_read.ns_per_byte": ("ns/B", "span.line_read.ns", "span.line_read.bytes", 1),
    "emit.ns_per_map_output_record": ("ns/record", "emit.ns", "map_output_records", 1),
    "freqbuf.hit_ratio": ("fraction", "freqbuf.hits", "map_output_records", 1),
    "hash_combine.hit_ratio": ("fraction", "hash_combine.hits", "map_output_records", 1),
    "sort.ns_per_spill_record": ("ns/record", "sort.ns", "spill_input_records", 1),
    "combine.out_in_ratio": ("fraction", "spilled_records", "spill_input_records", 1),
    "spillmatch.map_idle_fraction": ("fraction", "map_thread.idle_ns", "map_thread.wall_ns", 1),
    "spillmatch.support_idle_fraction": (
        "fraction", "support_thread.idle_ns", "support_thread.wall_ns", 1),
    "spill.bytes_per_input_byte": ("B/B", "spilled_bytes", "input_bytes", 1),
    "shuffle.ns_per_byte": ("ns/B", "shuffle.ns", "shuffled_bytes", 1),
    "span.shuffle_fetch.ms_per_mb": ("ms/MB", "span.shuffle_fetch.ms", "span.shuffle_fetch.mb", 1),
    "output_write.ns_per_byte": ("ns/B", "output_write.ns", "output_bytes", 1),
    "share.emit": ("fraction", "emit.ns", "work.total_ns", 1),
    "share.emit_sort_combine_freq": ("fraction", "map_side.ns", "work.total_ns", 1),
    "share.shuffle_reduce": ("fraction", "shuffle_reduce.ns", "work.total_ns", 1),
    "share.reduce_phase_wall": ("fraction", "phase.reduce_wall_s", "engine.job_wall_s", 1),
    "trace.overhead_pct": ("%", "trace.wall_delta_s", "trace.untraced_wall_s", 100),
}

# Output order: each ratio right after its inputs' layer block.
ORDER = [
    "map_user.ns_per_input_record", "map_user.ns", "input_records",
    "span.tokenize.ns_per_byte", "span.tokenize.ns", "span.tokenize.bytes",
    "read.ns_per_input_byte", "read.ns", "input_bytes",
    "span.line_read.ns_per_byte", "span.line_read.ns", "span.line_read.bytes",
    "emit.ns_per_map_output_record", "emit.ns", "map_output_records",
    "freqbuf.hit_ratio", "freqbuf.hits", "freqbuf.table_ns", "freqbuf.flush_records",
    "sketch.profile_ns",
    "hash_combine.hit_ratio", "hash_combine.hits", "hash_combine.flushes",
    "hash_combine.demotions",
    "sort.ns_per_spill_record", "sort.ns", "spill_input_records", "combine.ns",
    "combine.out_in_ratio", "spilled_records",
    "spillmatch.map_idle_fraction", "map_thread.idle_ns", "map_thread.wall_ns",
    "spillmatch.support_idle_fraction", "support_thread.idle_ns",
    "support_thread.wall_ns", "spillmatch.final_threshold", "spill.count",
    "spill.bytes_per_input_byte", "spilled_bytes", "spill_write.ns", "merge.ns",
    "merge_combine.ns",
    "shuffle.ns_per_byte", "shuffle.ns", "shuffled_bytes", "shuffle.wire_bytes",
    "span.shuffle_fetch.ms_per_mb", "span.shuffle_fetch.ms", "span.shuffle_fetch.mb",
    "reduce_merge.ns", "reduce_user.ns", "output_write.ns_per_byte", "output_write.ns",
    "output_bytes", "phase.reduce_wall_s", "reduce.partition_skew_ratio",
    "engine.overhead_s", "engine.job_wall_s", "phase.map_wall_s", "tasks.attempts",
    "tasks.retried",
    "share.emit", "share.emit_sort_combine_freq", "map_side.ns",
    "share.shuffle_reduce", "shuffle_reduce.ns", "work.total_ns",
    "share.reduce_phase_wall",
    "span.map_task.self_ms", "span.reduce_task.self_ms", "span.replay.ms",
    "span.replay.self_ms",
    "trace.overhead_pct", "trace.wall_delta_s", "trace.untraced_wall_s",
    "trace.traced_wall_s",
]

TRACE_VALUES = {
    "trace.untraced_wall_s": ("s", "bench"),
    "trace.traced_wall_s": ("s", "bench"),
    "trace.wall_delta_s": ("s", "bench"),
}

assert set(ORDER) == set(JOB_VALUES) | set(SPAN_VALUES) | set(TRACE_VALUES) | set(RATIOS)


def _covered(interval, children):
    """Length of the part of `interval` that the child intervals cover."""
    start, end = interval
    pieces = sorted((max(s, start), min(e, end)) for s, e in children)
    covered, cursor = 0, start
    for s, e in pieces:
        s = max(s, cursor)
        if e > s:
            covered += e - s
            cursor = e
    return covered


def span_values(spans, job):
    """Span-derived base quantities of one replay job."""
    mine = [s for s in spans if s["job"] == job]
    children = {}
    for s in mine:
        children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))

    def total(name, field=None):
        picked = [s for s in mine if s["name"] == name]
        if field is None:
            return sum(s["end_ns"] - s["start_ns"] for s in picked)
        return sum(s[field] for s in picked)

    def self_ns(name):
        return sum(
            s["end_ns"] - s["start_ns"]
            - _covered((s["start_ns"], s["end_ns"]), children.get(s["id"], []))
            for s in mine if s["name"] == name)

    return {
        "span.tokenize.ns": total("tokenize"),
        "span.tokenize.bytes": total("tokenize", "bytes"),
        "span.line_read.ns": total("line_read"),
        "span.line_read.bytes": total("line_read", "bytes"),
        "span.shuffle_fetch.ms": total("shuffle_fetch") / 1e6,
        "span.shuffle_fetch.mb": total("shuffle_fetch", "bytes") / 1e6,
        "span.map_task.self_ms": self_ns("map_task") / 1e6,
        "span.reduce_task.self_ms": self_ns("reduce_task") / 1e6,
        "span.replay.ms": total("replay") / 1e6,
        "span.replay.self_ms": self_ns("replay") / 1e6,
    }


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def derive(doc):
    """name -> {"value", "unit", "layer"[, "num", "den"]} for one run."""
    traced = [j for j in doc["jobs"] if j["kind"] == "traced" and j["ok"]]
    untraced = [j for j in doc["jobs"] if j["kind"] == "timed" and j["ok"]]
    replays = [j["job"] for j in doc["jobs"] if j["kind"] == "replay" and j["ok"]]
    if not traced or not replays:
        raise ValueError("the run holds no successful traced job and replay")

    out = {}
    for name, (unit, layer, extract) in JOB_VALUES.items():
        out[name] = {"value": _mean([extract(j) for j in traced]), "unit": unit,
                     "layer": layer}
    per_replay = [span_values(doc["spans"], job) for job in replays]
    for name, (unit, layer) in SPAN_VALUES.items():
        out[name] = {"value": _mean([v[name] for v in per_replay]), "unit": unit,
                     "layer": layer}
    traced_wall = statistics.median(j["wall_s"] for j in traced)
    untraced_wall = statistics.median(j["wall_s"] for j in untraced)
    for name, value in (("trace.traced_wall_s", traced_wall),
                        ("trace.untraced_wall_s", untraced_wall),
                        ("trace.wall_delta_s", traced_wall - untraced_wall)):
        out[name] = {"value": value, "unit": TRACE_VALUES[name][0], "layer": "bench"}
    for name, (unit, num, den, scale) in RATIOS.items():
        n, d = out[num]["value"], out[den]["value"]
        out[name] = {"value": scale * n / d if d else 0.0, "unit": unit,
                     "layer": out[num]["layer"], "num": num, "den": den}
    return {name: out[name] for name in ORDER}


def format_table(metrics):
    lines = []
    for name, m in metrics.items():
        line = f"  {m['layer']:<24} {name:<36} {m['value']:>16.6g} {m['unit']}"
        if "num" in m:
            line += (f"   = {metrics[m['num']]['value']:.6g} {m['num']}"
                     f" / {metrics[m['den']]['value']:.6g} {m['den']}")
        lines.append(line)
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        doc = json.load(f)
    print(format_table(derive(doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
