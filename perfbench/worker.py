"""One workload in a fresh interpreter.

Usage: worker.py WORKLOAD SEED SECONDS TRACE [--probe]

Prints ``READY`` as soon as the library is imported (with ``--probe`` it
exits there; run.py times these start-ups for ``setup_s``). Then it builds
the request pool, warms up, runs the closed loop and prints one
``RESULT {json}`` line. With TRACE=1 the loop runs twice, each for half the
time: untraced, then with spans recorded.
"""

import sys
from importlib import import_module

_WORKLOAD = sys.argv[1]
_lib = import_module("timed_plactic.cli" if _WORKLOAD == "cli-desk" else "timed_plactic")
print("READY", flush=True)
if "--probe" in sys.argv:
    sys.exit(0)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from math import ceil, exp, log  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import timed_plactic as tp  # noqa: E402

import calib  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / ".out"
LAYERS = ("notation", "classical", "timed_words", "timed_tableaux", "timed_knuth",
          "greene", "render", "selfcheck", "cli")


def quantile(ordered: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted samples: a
    Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics. A single
    order statistic in the steep tail of a latency distribution jumps with
    every sample; this estimate moves smoothly."""
    n = len(ordered)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    peak = a * log(p) + b * log(1 - p)
    steps = 8  # midpoint rule inside each 1/n interval
    weights = [
        sum(exp(a * log(x) + b * log(1 - x) - peak)
            for x in ((i + (k + 0.5) / steps) / n for k in range(steps)))
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def summarize(lat: list[float]) -> dict:
    """ops_per_s, p50 and p90 of calibrated latencies (ms)."""
    ordered = sorted(lat)
    return {
        "ops": len(ordered),
        "ops_per_s": 1e3 * len(ordered) / sum(ordered),
        "p50_ms": quantile(ordered, 0.5),
        "p90_ms": quantile(ordered, 0.9),
        "beyond_p90": len(ordered) - ceil(0.9 * len(ordered)),
    }


# ---------------------------------------------------------------- tracing


def _layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    if module.startswith("timed_plactic."):
        layer = module.split(".", 1)[1]
        return layer if layer in LAYERS else None
    return None


def _counter(name: str):
    """What a wrapper counts before each call, by function name."""
    if name in ("insertion_tableau", "insertion_steps"):
        return lambda w: len(w)
    if name in ("timed_insertion_tableau", "timed_insertion_steps"):
        return lambda w: len(w.runs)
    if name == "greene_timed_oracle":
        return lambda w, r, refine=1, **_: refine * wl.expanded_letters(w.runs)
    if name == "greene_classical_oracle":
        return lambda w, r, **_: len(w)
    if name == "run_checks":
        return lambda iters, seed: iters
    if name == "render_svg":
        return lambda obj, spec=None: 1
    return None


def install_spans(tracer: Tracer, modules) -> None:
    """Wrap every library function that ``modules`` reach by attribute."""
    for module in modules:
        for attr, fn in list(vars(module).items()):
            layer = _layer_of(fn)
            if layer and callable(fn) and not isinstance(fn, type):
                tracer.patch(module, attr, f"{layer}.{fn.__name__}", _counter(fn.__name__))


# ------------------------------------------------------------- in-process


def _validate_ms(req, lib) -> tuple[str, float] | None:
    """Time one Tableau/TimedTableau rebuild of the request's first output
    tableau (the validation insertion repeats after every letter/run)."""
    expected = req.expected()
    table = expected.get("left_tableau", expected) if isinstance(expected, dict) else None
    if table is None:
        return None
    if req.runs:
        rows = tuple(
            lib.TimedWord(tuple(lib.Run(r["letter"], lib.as_duration(r["dur"])) for r in row["runs"]))
            for row in table["rows"]
        )
        t0 = perf_counter()
        lib.TimedTableau(rows)
        return "timed_tableaux", (perf_counter() - t0) * 1e3
    rows = tuple(tuple(row) for row in table["rows"])
    t0 = perf_counter()
    lib.Tableau(rows)
    return "classical", (perf_counter() - t0) * 1e3


def in_process_loop(reqs, budget, cal, tracer=None, digest=None):
    raws, fails, i = [], 0, 0
    facts = {"validate": [], "done": []}
    first_cal = len(cal.raw)
    end = perf_counter() + budget
    while i == 0 or perf_counter() < end:
        req = reqs[i % len(reqs)]
        if tracer:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = wl.run_in_process(tp, req)
        except Exception:
            out = None
            traceback.print_exc()
        raws.append((perf_counter() - t0) * 1e3)
        cal.measure()
        try:
            ok = out is not None and wl.check_in_process(req, out)
        except Exception:
            ok = False
            traceback.print_exc()
        if not ok:
            fails += 1
            print(f"FAILED op {i} ({req.kind})", file=sys.stderr)
        if digest is not None and i < wl.DIGEST_OPS:
            digest.update((out or "").encode() + b"\n")
        if tracer:
            facts["done"].append(req)
            measured = _validate_ms(req, tp) if ok else None
            if measured:
                facts["validate"].append((i, *measured))
        i += 1
    facts["factors"] = cal.factors(first_cal)
    return raws, fails, facts


# -------------------------------------------------------------------- CLI


def cli_loop(reqs, budget, cal, launcher, tracer=None, digest=None):
    raws, fails, i = [], 0, 0
    facts = {"main_ms": [], "done": [], "replies": []}
    first_cal = len(cal.raw)
    end = perf_counter() + budget
    while i == 0 or perf_counter() < end:
        req = reqs[i % len(reqs)]
        proc, ms = launcher.run(req.args)
        raws.append(ms)
        cal.measure()
        if proc is None:
            print(f"TIMEOUT op {i} ({req.kind})", file=sys.stderr)
        ok, reply = False, {}
        if proc is not None:
            try:
                ok, reply = wl.check_cli(req, proc)
            except Exception:
                traceback.print_exc()
        if not ok:
            fails += 1
            print(f"FAILED op {i} ({req.kind}): exit {getattr(proc, 'returncode', None)}", file=sys.stderr)
        if digest is not None and i < wl.DIGEST_OPS:
            digest.update(wl.cli_output(req, proc) if proc is not None else b"timeout\n")
        if tracer:
            facts["done"].append(req)
            facts["replies"].append(reply)
            facts["main_ms"].append(_replay(req, tracer, i))
        i += 1
    facts["factors"] = cal.factors(first_cal)
    return raws, fails, facts


def _replay(req, tracer: Tracer, op: int) -> float:
    """Run the same argv in-process through ``cli.main``; returns raw ms."""
    tracer.op = op
    sink = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            _lib.main(list(req.args))  # wrapped by install_spans
        except SystemExit:
            pass
    return (perf_counter() - t0) * 1e3


def start_costs(env, cwd, cal, pairs: int = 9) -> tuple[float, float]:
    """Calibrated ms of a bare interpreter (``python -c pass``) and of
    ``import timed_plactic.cli`` on top of it: medians over runs taken in
    pairs, so that host drift hits both alike."""
    raws, first_cal = [], len(cal.raw)
    for _ in range(pairs):
        for code in ("pass", "import timed_plactic.cli"):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True, timeout=60)
            raws.append((perf_counter() - t0) * 1e3)
            cal.measure()
    ms = _scaled(raws, cal.factors(first_cal))
    bare, imported = ms[0::2], ms[1::2]
    return median(bare), median(i - b for b, i in zip(bare, imported))


# ---------------------------------------------------------------- metrics


def layer_metrics(tracer, facts, lat, untraced, traced, cal, env, cwd) -> dict:
    factors = facts["factors"]
    ops = max(1, len(facts["done"]))
    inclusive, self_ms, calls = tracer.totals(factors)

    def per_op(*names):
        return sum(inclusive.get(n, 0.0) for n in names) / ops

    def n_calls(*names):
        return sum(calls.get(n, 0) for n in names)

    def count(*names):
        return sum(tracer.counts.get(n, 0) for n in names)

    done = facts["done"]
    m = {
        "trace.ops": (len(done), "count"),
        "trace.op_ms": (1e3 / traced["ops_per_s"], "ms"),
        "trace.overhead_pct": (100.0 * (untraced["ops_per_s"] / traced["ops_per_s"] - 1.0), "%"),
        "host.cal_ms": (median(cal.raw), "ms"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (self_ms.get(layer, 0.0) / ops, "ms")

    parse = [n for n in inclusive if n.startswith("notation.parse")]
    fmt = [n for n in inclusive
           if n.startswith("notation.") and n.endswith(("_to_dict", "format_timed_word", "format_word"))]
    m["notation.parse_ms"] = (per_op(*parse), "ms")
    m["notation.format_ms"] = (per_op(*fmt), "ms")
    m["notation.input_bytes"] = (sum(len("".join(r.args).encode()) for r in done), "bytes")

    c_ins = ("classical.insertion_tableau", "classical.insertion_steps")
    equiv_ops = {op for op, r in enumerate(done) if r.kind in ("equiv", "equiv-false")}
    m["classical.insert_calls"] = (n_calls(*c_ins), "count")
    m["classical.letters_inserted"] = (count(*c_ins), "count")
    m["classical.insert_ms"] = (per_op(*c_ins), "ms")
    m["classical.equiv_ms"] = (
        sum(tracer.under(n, equiv_ops, factors) for n in c_ins) / ops, "ms")
    validate = {"classical": [], "timed_tableaux": []}
    for op, layer, ms in facts.get("validate", ()):
        validate[layer].append(ms * factors[op])
    m["classical.validate_ms"] = (_mean(validate["classical"]), "ms")

    t_ins = ("timed_tableaux.timed_insertion_tableau", "timed_tableaux.timed_insertion_steps")
    m["timed_tableaux.insert_calls"] = (n_calls(*t_ins), "count")
    m["timed_tableaux.runs_inserted"] = (count(*t_ins), "count")
    m["timed_tableaux.insert_ms"] = (per_op(*t_ins), "ms")
    m["timed_tableaux.validate_ms"] = (_mean(validate["timed_tableaux"]), "ms")
    out_runs, out_bits = 0, 0
    for table in (t for r in done for t in _timed_tables(r)):
        for row in table["rows"]:
            out_runs += len(row["runs"])
            for run in row["runs"]:
                den = run["dur"].partition("/")[2] or "1"
                out_bits = max(out_bits, int(den).bit_length())
    m["timed_tableaux.out_runs"] = (out_runs, "count")
    m["timed_words.grid_den_bits"] = (max((r.grid_den_bits for r in done), default=0), "bits")
    m["timed_words.out_den_bits_max"] = (out_bits, "bits")

    verdicts = [r.expected()["equivalent"] for r in done if r.kind == "move"]
    m["timed_knuth.apply_calls"] = (n_calls("timed_knuth.apply_move"), "count")
    m["timed_knuth.apply_ms"] = (per_op("timed_knuth.apply_move"), "ms")
    m["timed_knuth.equiv_verdicts"] = (len(verdicts), "count")
    m["timed_knuth.equiv_true_ratio"] = (sum(verdicts) / len(verdicts) if verdicts else 0.0, "ratio")

    replies = facts.get("replies", [])
    checks = [f["oracle_agreement"] for f in replies if "oracle_agreement" in f]
    m["greene.fast_ms"] = (per_op("greene.greene_classical", "greene.greene_timed"), "ms")
    m["greene.oracle_classical_calls"] = (n_calls("greene.greene_classical_oracle"), "count")
    m["greene.oracle_classical_ms"] = (per_op("greene.greene_classical_oracle"), "ms")
    m["greene.oracle_timed_calls"] = (n_calls("greene.greene_timed_oracle"), "count")
    m["greene.oracle_timed_ms"] = (per_op("greene.greene_timed_oracle"), "ms")
    m["greene.oracle_expanded_letters"] = (count("greene.greene_timed_oracle"), "count")
    m["greene.oracle_skipped"] = (tracer.errors.get("greene.greene_timed_oracle", 0)
                                  + tracer.errors.get("greene.greene_classical_oracle", 0), "count")
    m["greene.oracle_checks"] = (len(checks), "count")
    m["greene.oracle_agreement"] = (sum(checks) / len(checks) if checks else 0.0, "ratio")

    m["selfcheck.ms"] = (per_op("selfcheck.run_checks"), "ms")
    m["selfcheck.iterations"] = (sum(f.get("selfcheck_iterations", 0) for f in replies), "count")
    m["render.calls"] = (n_calls("render.render_svg"), "count")
    m["render.ms"] = (per_op("render.render_svg"), "ms")
    m["render.svg_bytes"] = (sum(f.get("svg_bytes", 0) for f in replies), "bytes")

    bare, imported = start_costs(env, cwd, cal)
    m["cli.proc_start_ms"] = (bare, "ms")
    m["cli.import_ms"] = (imported, "ms")
    if "main_ms" in facts:
        main_ms = _mean(_scaled(facts["main_ms"], factors))
        m["cli.main_ms"] = (main_ms, "ms")
        m["cli.process_overhead_ms"] = (_mean(lat) - main_ms, "ms")
    else:
        m["cli.main_ms"] = m["cli.process_overhead_ms"] = (0.0, "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _timed_tables(req) -> list[dict]:
    if not req.runs or req.kind not in ("insert", "move", "insert-timed"):
        return []
    exp = req.expected()
    return [exp["left_tableau"], exp["right_tableau"]] if req.kind == "move" else [exp]


def _scaled(raws, factors) -> list[float]:
    return [r * f for r, f in zip(raws, factors)]


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


# ------------------------------------------------------------------- main


def main() -> int:
    workload, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    OUT_DIR.mkdir(exist_ok=True)
    cal = calib.Calibrator(wl.KERNEL_OF[workload])

    t0 = perf_counter()
    if workload == "cli-desk":
        reqs = wl.cli_desk(seed, OUT_DIR.relative_to(root))
    elif workload == "classical-long":
        reqs = wl.classical_long(seed)
    else:
        reqs = wl.timed(seed, coprime=workload == "timed-coprime")
    print(f"{workload}: {wl.size_stats(reqs)}; generated in {perf_counter() - t0:.2f} s")

    def loop(budget, tracer=None, digest=None):
        """(raw ms, failures, facts) of one closed-loop phase, and the peak
        RSS in MB: of the worker, or for cli-desk of the largest child."""
        if workload != "cli-desk":
            in_process_loop(reqs[:1], 0, cal)  # warm-up: lazy imports, caches
            out = in_process_loop(reqs, budget, cal, tracer, digest)
            return out, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with wl.Launcher(env, root) as launcher:
            cli_loop(reqs[:1], 0, cal, launcher)  # warm-up: page and bytecode caches
            out = cli_loop(reqs, budget, cal, launcher, tracer, digest)
            return out, launcher.close()

    digest = hashlib.sha256()
    (raws, fails, facts), peak_rss = loop(seconds / 2 if trace else seconds, digest=digest)
    lat = _scaled(raws, facts["factors"])
    untraced = summarize(lat)
    result = {
        "attempted": len(lat), "failed": fails, "summary": untraced,
        "digest": digest.hexdigest(), "digest_ops": min(len(lat), wl.DIGEST_OPS),
        "peak_rss_mb": peak_rss, "cal_ms": median(cal.raw),
    }
    if trace:
        tracer = Tracer()
        if workload == "cli-desk":
            from timed_plactic import selfcheck, timed_knuth
            install_spans(tracer, (_lib, selfcheck, timed_knuth))
        else:
            from timed_plactic import greene, notation, timed_knuth
            install_spans(tracer, (tp, greene, notation, timed_knuth))
        try:
            (raws2, fails2, facts), _ = loop(seconds / 2, tracer=tracer)
        finally:
            tracer.restore()
        tracer.dump(OUT_DIR / f"spans-{workload}-{seed}.jsonl")
        lat2 = _scaled(raws2, facts["factors"])
        traced = summarize(lat2)
        result["attempted"] += len(lat2)
        result["failed"] += fails2
        result["traced"] = traced
        result["layers"] = layer_metrics(tracer, facts, lat2, untraced, traced, cal, env, root)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
