"""Benchmark of mldelab: cold `reproduce`, lattice enumeration and a seeded
query session.  Standard library only.

    python3 perfbench/run.py --workload {reproduce,lattice,session} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  One client drives one workload process at
a time (a closed loop).  With ``--trace 0`` it repeats whole workload passes
for about ``--seconds`` seconds and reports the end-to-end metrics.  With
``--trace 1`` it runs one untraced and one traced pass of the workload, plus
an in-process replay of `reproduce` and fixed-order layer probes, and reports
the per-layer metrics.  Every output is checked; the last stdout line is one
JSON object, and the exit code is 1 if any output was wrong.  Raw values and
spans go to ``.perfbench/`` in the checkout.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import gates
import inputs
from spans import durations, root_total, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7
CHILD_TIMEOUT = 150.0


class BenchError(Exception):
    """The benchmark could not run the program at all."""


class Child:
    """One finished child process: its output, timings and peak RSS."""

    def __init__(self, argv, stdin_text=None, wait_ready=False, check=True):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        status = None
        try:
            if stdin_text:
                proc.stdin.write(stdin_text)
            proc.stdin.close()
            self.setup_s = None
            if wait_ready:
                line = proc.stdout.readline()
                self.setup_s = time.perf_counter() - t0
                if line.strip() != "ready":
                    raise BenchError(f"{argv[1:3]}: no ready line (got {line!r})")
            self.stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - t0
        finally:
            watchdog.cancel()
            if status is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024
        if check and self.returncode != 0:
            raise BenchError(f"{argv[1:3]} exited with {self.returncode}")


def worker(mode: str, args=None) -> tuple[Child, dict]:
    child = Child([sys.executable, WORKER, mode],
                  json.dumps(args) if args is not None else None, wait_ready=True)
    return child, json.loads(child.stdout.strip().splitlines()[-1])


# -- one workload pass -------------------------------------------------------

class Pass:
    """wall_s covers set-up plus the timed operations, not the checks."""

    def __init__(self, wall_s, setup_s, rss_mb, ops, spans=(), extra=None):
        self.wall_s, self.setup_s, self.rss_mb = wall_s, setup_s, rss_mb
        self.ops, self.spans, self.extra = ops, list(spans), extra or {}


def reproduce_pass(seed, index, trace, expected) -> Pass:
    child = Child([sys.executable, "-m", "mldelab.cli", "reproduce"], check=False)
    try:
        report = json.loads(child.stdout)
    except json.JSONDecodeError:
        report = None
    problems = gates.reproduce_problems(report)
    if child.returncode != 0:
        problems.append(f"exit code {child.returncode}")
    op = {"kind": "reproduce", "ms": child.wall_s * 1000,
          "status": "wrong" if problems else "ok"}
    if problems:
        op["detail"] = "; ".join(problems)[:500]
    sections = gates.catalog_section_requests(report) if not problems else []
    return Pass(child.wall_s, None, child.rss_mb, [op],
                extra={"sections": sections})


def _worker_pass(mode, args) -> Pass:
    child, res = worker(mode, args)
    work = sum(op["ms"] for op in res["ops"]) / 1000
    return Pass(child.setup_s + work, child.setup_s, res["rss_kb"] / 1024,
                res["ops"], res.get("spans", ()), res)


def lattice_pass(seed, index, trace, expected) -> Pass:
    orders = inputs.lattice_orders(inputs.pass_rng(seed, index))
    return _worker_pass("lattice", {"trace": trace, "orders": orders,
                                    "expected_counts": expected["lattice_theta"]})


def session_pass(seed, index, trace, expected) -> Pass:
    requests = inputs.session_requests(inputs.pass_rng(seed, index))
    p = _worker_pass("session", {"trace": trace, "requests": requests,
                                 "wronskian": expected["wronskian"]})
    sections = []
    for r in requests:
        if r["kind"] in ("catalog_build", "catalog_verify"):
            sections.append((r["label"].rsplit(".", 1)[0], r["order"]))
        elif r["kind"] == "wronskian":
            sections.append((inputs.PLAIN_SYSTEMS[r["s"]], r["order"] + 8))
    p.extra["sections"] = sections
    return p


PASSES = {"reproduce": reproduce_pass, "lattice": lattice_pass,
          "session": session_pass}


# -- metrics -----------------------------------------------------------------

def percentile(values, q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(passes, setups) -> tuple[dict, dict]:
    lat = [op["ms"] for p in passes for op in p.ops]
    values = {
        "wall_s": ([p.wall_s for p in passes], "s"),
        "setup_s": (setups, "s"),
        "peak_rss_mb": ([p.rss_mb for p in passes], "MB"),
    }
    metrics = {k: {"value": statistics.median(v), "unit": u} for k, (v, u) in values.items()}
    metrics["op_p50_ms"] = {"value": statistics.median(lat), "unit": "ms"}
    metrics["op_p90_ms"] = {"value": percentile(lat, 90), "unit": "ms"}
    samples = {k: len(v) for k, (v, _) in values.items()}
    samples["op_p50_ms"] = samples["op_p90_ms"] = len(lat)
    return metrics, samples


def _sum(d, name):
    return sum(d.get(name, [0.0]))


def _med(d, name):
    return statistics.median(d[name])


def per_layer(workload, untraced, traced, replay, probe, expected) -> tuple[dict, list]:
    """Per-layer metrics and the list of count mismatches."""
    rd, pd = durations(replay["spans"]), durations(probe["spans"])
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for order in (120, 300):
        put(f"series.mul_ms.o{order}", _med(pd, f"series.mul.o{order}") * 1e3, "ms")
    put("series.pow_ms.o300", _med(pd, "series.pow.o300") * 1e3, "ms")
    put("series.invert_ms.o300", _med(pd, "series.invert.o300") * 1e3, "ms")
    put("series.to_json_ms.o300", _med(pd, "series.to_json.o300") * 1e3, "ms")
    put("series.coefficient_us",
        _med(pd, "series.coefficient.o300") * 1e6 / probe["coefficient_calls"], "us")
    num = max(probe["coeff_bits"][0], replay["coeff_bits"][0])
    den = max(probe["coeff_bits"][1], replay["coeff_bits"][1])
    put("series.coeff_bits.num_max", num, "bits")
    put("series.coeff_bits.den_max", den, "bits")
    for order in (50, 56):
        put(f"forms.build_ms.o{order}", _med(pd, f"forms.build.o{order}") * 1e3, "ms")
    put("mlde.build_flat_ms.o152", _med(pd, "mlde.build_flat.o152") * 1e3, "ms")
    put("mlde.frobenius_ms.o150", _med(pd, "mlde.frobenius_solve.o150") * 1e3, "ms")
    put("mlde.frobenius_log_ms.o100", _med(pd, "mlde.frobenius_solve_log.o100") * 1e3, "ms")
    put("mlde.apply_ms.o150", _med(pd, "mlde.apply.o150") * 1e3, "ms")
    put("mlde.indicial_ms.p50", _med(pd, "mlde.indicial") * 1e3, "ms")
    put("mlde.indicial_ms.max", max(pd["mlde.indicial"]) * 1e3, "ms")
    put("mlde.wronskian_det_ms", _med(pd, "mlde.modular_wronskian") * 1e3, "ms")
    for cid in range(1, 5):
        put(f"classify.filter_s.case{cid}", _sum(rd, f"classify.filter.case{cid}"), "s")
    for g in "abcdefg":
        put(f"relations.group_s.{g}", _sum(rd, f"relations.group.{g}"), "s")
    for section in inputs.SECTIONS:
        put(f"catalog.build_s.{section}", _sum(rd, f"catalog.build.{section}"), "s")
        put(f"catalog.apply_s.{section}", _sum(rd, f"catalog.apply.{section}"), "s")
    built, reuse = inputs.section_counts(untraced.extra.get("sections", []))
    put("catalog.sections_built", built, "count")
    put("catalog.reuse_share", reuse, "ratio")
    both = {**pd, **rd}
    for case in ("A1", "A2", "G2", "D4", "F4", "E6", "E7", "E8"):
        put(f"characters.verify_s.{case}", _sum(both, f"characters.case.{case}"), "s")
    mismatches = []
    for case, n in replay["theta_vectors"].items():
        put(f"characters.theta_s.{case}", _sum(rd, f"characters.theta.{case}"), "s")
        put(f"characters.theta_vectors.{case}", n, "count")
        if n != expected["theta_vectors_o29"][case]:
            mismatches.append(f"theta_vectors.{case} = {n}")
    if [num, den] != expected["coeff_bits"]:
        mismatches.append(f"coeff_bits = {[num, den]}, want {expected['coeff_bits']}")
    if workload == "reproduce":
        traced_wall = traced.setup_s + replay["work_s"]
        attributed = root_total(replay["spans"])
    else:
        traced_wall = traced.wall_s
        attributed = root_total(traced.spans)
    put("cli.unattributed_s", untraced.wall_s - attributed, "s")
    put("trace.overhead_s", traced_wall - untraced.wall_s, "s")
    return m, mismatches


# -- run ---------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_summary(workload, metrics, samples, passes, groups, top_spans):
    for name, v in metrics.items():
        extra = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:34s} {v['value']:>14.6g} {v['unit']}{extra}")
    for p in passes:
        for op in p.ops:
            if op["status"] != "ok":
                print(f"failed op: {op['kind']} {op['status']} {op.get('detail', '')}")
    if groups:
        total = sum(t for k, t in groups.items() if "." not in k)
        print(f"self time on {workload}, traced pass ({total:.3f} s), top spans:")
        for name, t in top_spans:
            print(f"  {name:34s} {t:10.4f} s  {100 * t / total:5.1f}%")
        print("by module and by operation:")
        for key, t in sorted(groups.items(), key=lambda kv: -kv[1]):
            print(f"  {key:34s} {t:10.4f} s  {100 * t / total:5.1f}%")


def untraced_run(args, expected, setups):
    """Whole passes until the next would overrun --seconds; at least one."""
    t_start = time.perf_counter()
    passes = []
    while True:
        passes.append(PASSES[args.workload](args.seed, len(passes), False, expected))
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - t_start + typical > args.seconds:
            break
    setups += [p.setup_s for p in passes if p.setup_s is not None]
    metrics, samples = end_to_end(passes, setups)
    return passes, metrics, samples, [], {}


def traced_run(args, expected):
    """Untraced and traced pass of the workload, the replay and the probes."""
    run_pass = PASSES[args.workload]
    untraced = run_pass(args.seed, 0, False, expected)
    if args.workload == "reproduce":
        child, replay = worker("replay", {"trace": True})
        traced = Pass(child.setup_s + replay["work_s"], child.setup_s,
                      replay["rss_kb"] / 1024, [], replay["spans"], replay)
    else:
        traced = run_pass(args.seed, 0, True, expected)
        replay = worker("replay", {"trace": True})[1]
    probe = worker("probe", {"seed": args.seed})[1]
    metrics, mismatches = per_layer(args.workload, untraced, traced, replay,
                                    probe, expected)
    mismatches += [f"replay: {p}" for p in replay["problems"]]
    mismatches += [f"probe: {p}" for p in probe["problems"]]
    spans = {"traced": traced.spans, "replay": replay["spans"], "probe": probe["spans"]}
    return [untraced, traced], metrics, {}, mismatches, spans


def self_time_summary(spans) -> tuple[list, dict]:
    """Top span names, and totals by module and by module.operation."""
    by_name = self_times(spans)
    groups: dict[str, float] = {}
    for name, t in by_name.items():
        parts = name.split(".")
        for key in (parts[0], ".".join(parts[:2]) + ".*"):
            groups[key] = groups.get(key, 0.0) + t
    return sorted(by_name.items(), key=lambda kv: -kv[1])[:12], groups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(PASSES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mldelab", "cli.py")):
        print(f"error: no mldelab sources under {ROOT}/src", file=sys.stderr)
        return 2
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "interpreter": f"{platform.python_implementation()} "
            f"{platform.python_version()}", "git_sha": git_sha(),
            "nproc": os.cpu_count(), "loadavg_start": os.getloadavg()}
    expected = gates.load_expected()
    t_start = time.perf_counter()
    setups = [worker("setup")[0].setup_s for _ in range(SETUP_SAMPLES)]
    if args.trace:
        passes, metrics, samples, mismatches, spans = traced_run(args, expected)
        top_spans, groups = self_time_summary(spans["traced"])
    else:
        passes, metrics, samples, mismatches, spans = untraced_run(args, expected, setups)
        top_spans, groups = [], {}
    record = {"meta": meta, "spans": spans}
    ops = [op for p in passes for op in p.ops]
    wrong = [op for op in ops if op["status"] == "wrong"]
    correct = not wrong and not mismatches
    record.update({
        "raw": {"setup_s": setups, "wall_s": [p.wall_s for p in passes],
                "peak_rss_mb": [p.rss_mb for p in passes],
                "ops": [[op["kind"], op["ms"], op["status"]] for op in ops]},
        "metrics": metrics, "samples": samples, "mismatches": mismatches,
        "elapsed_s": time.perf_counter() - t_start})
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh)
    print(f"# {json.dumps(meta)}")
    print_summary(args.workload, metrics, samples, passes, groups, top_spans)
    for msg in mismatches:
        print(f"mismatch: {msg}")
    print(f"raw values and spans: {os.path.relpath(out, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": sum(op["status"] != "ok" for op in ops),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
