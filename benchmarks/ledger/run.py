"""The perf ledger: one command for every number this repository quotes.

    python3 benchmarks/ledger/run.py [--workload W] [--seed N] [--seconds S]
                                     [--trace 0|1] [--sets K] [--quick]
                                     [--out FILE]

runs the four workloads of ``README.md`` (or one), prints every end-to-end
metric by name with its unit and sample count, checks the program's
outputs and exits non-zero when a check fails.  ``--trace 1`` spends half
of the measured seconds untraced and half with the ledger's span timers
interposed, and prints the per-layer table.

``BENCHMARK.json`` names this file as its ``command`` and is the one table
of metric names, units, directions and bounds: after each workload's
tables comes one JSON object on a line of its own, with the manifest's
``end_to_end`` metrics (``--trace 0``) or its ``per_layer`` metrics
(``--trace 1``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import derive  # noqa: E402
import live  # noqa: E402
from worker import NOMINAL_SECONDS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in MANIFEST["workloads"])
END_TO_END = {m["name"]: m for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m for m in MANIFEST["per_layer"]}
QUICK_SECONDS = 2.0

#: the phase whose layer table must show the claimed separation.
MAIN_PHASE = {
    "live_lenet_open": "base", "live_apps_dynamic": "measured",
    "sim_replay": "mix", "plan_fleet_epochs": "full_plan",
}

#: phases shorter than this are timer noise, not a table to reconcile.
MIN_RECONCILED_MS = 50.0

#: the figure whose traced / untraced ratio is the tracing overhead
#: (sat_rps, server_cpu_us_per_req, mix_queries_per_s, plan_full_ms); the
#: second is a demoted one, lower-is-better like all of those.
HEADLINE = {
    "live_lenet_open": "ops_per_s",
    "live_apps_dynamic": "loadgen.server_cpu_us_per_req",
    "sim_replay": "ops_per_s",
    "plan_fleet_epochs": "heavy_op_ms",
}


# ------------------------------------------------------------ one workload


def _run_worker(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """An in-process workload in a fresh interpreter (see :mod:`worker`)."""
    base = [sys.executable, str(HERE / "worker.py"), workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        base.append("--trace")
    setups: list[float] = []
    for attempt in range(live.SETUP_SAMPLES):
        last = attempt == live.SETUP_SAMPLES - 1
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            base if last else base + ["--setup-only"],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        )
        try:
            ready = live.read_line(proc, 120.0)
            setups.append(time.perf_counter() - t0)
            if ready.strip() != "READY":
                raise RuntimeError(f"{workload} worker did not set up")
            out, _ = proc.communicate(timeout=170.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["metrics"]["setup_s"] = {
        "value": statistics.median(setups), "unit": "s", "n": len(setups),
    }
    return result


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload once; the result carries its own checks."""
    if workload == "live_lenet_open":
        result = live.live_lenet_open(seed, seconds, traced)
    elif workload == "live_apps_dynamic":
        result = live.live_apps_dynamic(seed, seconds, traced)
    else:
        result = _run_worker(workload, seed, seconds, traced)
    # one definition everywhere: operations answered inside their SLO, of
    # those attempted.  `failed` is something else: operations that got no
    # answer or a wrong one, which no workload here should ever have.
    result["metrics"]["ok_share"] = {
        "value": result["in_slo"] / result["attempted"],
        "unit": "fraction", "n": result["attempted"],
    }
    if set(result["metrics"]) != set(END_TO_END):
        raise RuntimeError(
            f"{workload} reports {sorted(result['metrics'])}, the manifest "
            f"names {sorted(END_TO_END)}")
    result.update(workload=workload, seed=seed, seconds=seconds, traced=traced)
    result["correct"] = result["failed"] == 0 and all(
        c["ok"] for c in result["checks"])
    return result


# --------------------------------------------------------- the layer view


def layer_view(untraced: dict, traced: dict) -> dict:
    """Per-phase layer rows, reconciliation and the named layer metrics."""
    workload = traced["workload"]
    live_plane = workload.startswith("live_")
    phases = {}
    for phase, snap in traced["trace"].items():
        if snap is None:
            continue
        phases[phase] = {
            "rows": derive.layer_rows(snap),
            "reconcile": derive.reconcile(snap, live_plane),
        }
    named = derive.named_metrics(workload, traced)
    # end-to-end figures too unsteady on this box to carry a bound, from
    # the untraced half (README, "What was demoted")
    for name, m in untraced["demoted"].items():
        named[name] = (m["value"], m["unit"])
    head = HEADLINE[workload]
    before = {**untraced["metrics"], **untraced["demoted"]}[head]["value"]
    after = {**traced["metrics"], **traced["demoted"]}[head]["value"]
    higher = head in END_TO_END and END_TO_END[head]["better"] == "higher"
    worse = (before - after) if higher else (after - before)
    named["trace.overhead_pct"] = (100.0 * worse / before, "%")
    total = sum(p["reconcile"]["total_ms"] for p in phases.values())
    loose = sum(p["reconcile"]["unattributed_ms"] for p in phases.values())
    named["trace.unattributed_pct"] = (100.0 * loose / max(total, 1e-9), "%")
    for layer in derive.TABLE_LAYERS:
        named[f"{layer}.self_ms"] = (
            sum(p["rows"][layer]["self_ms"] for p in phases.values()), "ms")
    unpublished = sorted(set(named) - set(PER_LAYER))
    if unpublished:
        raise RuntimeError(f"layer metrics missing from BENCHMARK.json: "
                           f"{unpublished}")
    main = phases[MAIN_PHASE[workload]]
    checks = [
        (f"{phase}: layer self times within 10% of the phase's cost",
         abs(p["reconcile"]["unattributed_pct"]) <= 10.0,
         f"{p['reconcile']['unattributed_pct']:+.1f}% unattributed")
        for phase, p in phases.items()
        if p["reconcile"]["total_ms"] >= MIN_RECONCILED_MS
    ]
    # whether the workloads separate the layers as the README claims is a
    # property of the benchmark's design: reported, not a check of output
    claims = derive.separation(
        workload, main["rows"], main["reconcile"]["total_ms"])
    return {"phases": phases, "named": named, "checks": checks,
            "claims": claims}


# ---------------------------------------------------------------- printing


def print_result(result: dict) -> None:
    attempted, in_slo = result["attempted"], result["in_slo"]
    print(f"\n== {result['workload']}  seed {result['seed']}  "
          f"{result['seconds']:g} s measured"
          f"{'  [traced]' if result['traced'] else ''}")
    print(f"   attempted {attempted:,} / in SLO {in_slo:,} / "
          f"late or shed {attempted - in_slo - result['failed']:,} / "
          f"failed (no answer or a wrong one) {result['failed']:,}")
    if not result["correct"]:
        print("   CHECK FAILED -- metrics withheld")
    else:
        print(f"   {'metric':<15}{'value':>14}  {'unit':<9}{'samples':>9}"
              f"  {'better':<7}{'bound':>6}  on this workload")
        for name, spec in END_TO_END.items():
            m = result["metrics"][name]
            n = f"{m['n']:,}" if "n" in m else "-"
            print(f"   {name:<15}{m['value']:>14.4f}  {spec['unit']:<9}{n:>9}"
                  f"  {spec['better']:<7}{spec['bound']:>6.1%}"
                  f"  {m.get('what', name)}")
        for name, m in result["demoted"].items():
            print(f"   {name:<29}{m['value']:>10.4f}  {m['unit']:<9}"
                  f"{m['n']:>9,}  recorded with the layer metrics, no bound")
    host = result["info"].get("host")
    if host:
        print(f"   host speed {host['speed']:.2f} of the reference box's "
              f"(median of {host['readings']} readings); this workload's "
              "host timings are scaled to the reference")
    for check in result["checks"]:
        print(f"   [{'ok' if check['ok'] else 'FAILED'}] {check['name']}: "
              f"{check['detail']}")


def print_layers(view: dict) -> None:
    for phase, p in view["phases"].items():
        rec = p["reconcile"]
        print(f"   -- phase {phase}: layer self times "
              f"{rec['attributed_ms']:.0f} ms of {rec['total_ms']:.0f} ms, "
              f"unattributed {rec['unattributed_ms']:+.0f} ms "
              f"({rec['unattributed_pct']:+.1f}%)")
        print(f"      {'layer':<28}{'calls':>10}{'busy_ms':>12}{'self_ms':>12}"
              f"{'share':>8}")
        for layer, row in p["rows"].items():
            share = row["self_ms"] / max(rec["total_ms"], 1e-9)
            print(f"      {layer:<28}{row['calls']:>10,}{row['busy_ms']:>12.1f}"
                  f"{row['self_ms']:>12.1f}{share:>8.1%}")
    print("   -- named layer metrics")
    for name, (value, unit) in sorted(view["named"].items()):
        if not name.endswith(".self_ms"):
            print(f"      {name:<46}{value:>14.4f}  {unit}")
    for name, ok, detail in view["checks"]:
        print(f"   [{'ok' if ok else 'FAILED'}] {name}: {detail}")
    for name, ok, detail in view["claims"]:
        print(f"   [{'met' if ok else 'NOT MET'}] {name}: {detail}")


# ----------------------------------------------------------------- records


@functools.lru_cache(maxsize=None)
def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def write_rows(out: str, result: dict, view: dict | None, quick: bool) -> None:
    """Append flat rows, each carrying what it may be compared with."""
    stamp = {
        "commit": _commit(), "seed": result["seed"],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "seconds": result["seconds"],
        "comparable": not quick, "workload": result["workload"],
    }
    rows = [
        dict(stamp, kind="end_to_end", metric=name, what=m.get("what", name),
             value=m["value"], unit=m["unit"], samples=m.get("n"))
        for name, m in result["metrics"].items()
    ]
    rows.append(dict(
        stamp, kind="counts", attempted=result["attempted"],
        in_slo=result["in_slo"], failed=result["failed"]))
    if view is not None:
        rows += [
            dict(stamp, kind="per_layer", metric=name, value=value, unit=unit)
            for name, (value, unit) in view["named"].items()
        ]
    with open(out, "a", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------- running


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool, out: str | None) -> tuple[bool, dict[str, float]]:
    """One workload as ``BENCHMARK.json`` describes it: tables, then the
    JSON line.  With ``trace`` the first half of ``seconds`` runs untraced,
    as the reference the tracing overhead is measured against."""
    share = seconds / 2 if trace else seconds
    result = run_workload(workload, seed, share, traced=False)
    print_result(result)
    correct = result["correct"]
    attempted, failed = result["attempted"], result["failed"]
    view = None
    if trace and correct:
        traced = run_workload(workload, seed, share, traced=True)
        print_result(traced)
        correct = traced["correct"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        if correct:
            view = layer_view(result, traced)
            print_layers(view)
            correct = all(good for _, good, _ in view["checks"])
    metrics: dict[str, dict] = {}
    if correct and view is not None:
        # a layer this workload does not run reports 0 for it; a layer it
        # runs but whose span went missing has already raised in derive
        metrics = {
            name: {"value": float(view["named"].get(name, (0.0, ""))[0]),
                   "unit": spec["unit"]}
            for name, spec in PER_LAYER.items()
        }
    elif correct:
        metrics = {
            name: {"value": result["metrics"][name]["value"],
                   "unit": spec["unit"]}
            for name, spec in END_TO_END.items()
        }
    if out and result["correct"]:
        write_rows(out, result, view, quick)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    values = {} if trace or not correct else {
        name: m["value"] for name, m in metrics.items()}
    return correct, values


def print_spreads(series: dict[tuple[str, str], list[float]], sets: int) -> bool:
    """Per-metric min / median / max over the sets, against the bounds."""
    ok = True
    quartiles = sets >= 4
    print(f"\n#### spread over {sets} sets: "
          f"{'(Q3 - Q1)' if quartiles else '(max - min)'} / median "
          "against the bound")
    print(f"   {'workload':<20}{'metric':<15}{'min':>12}{'median':>12}"
          f"{'max':>12}{'spread':>9}{'bound':>7}")
    for (workload, name), vals in series.items():
        mid = statistics.median(vals)
        if quartiles:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            width = q3 - q1
        else:
            width = max(vals) - min(vals)
        spread = width / abs(mid)
        bound = END_TO_END[name]["bound"]
        # set-up time is reported but, as in the driver's own acceptance
        # rule, only its median is held to a bound
        over = name != "setup_s" and spread > bound
        ok = ok and not over
        print(f"   {workload:<20}{name:<15}{min(vals):>12.4f}{mid:>12.4f}"
              f"{max(vals):>12.4f}{spread:>9.1%}{bound:>7.1%}"
              f"{'  OVER' if over else ''}")
    return ok


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="The perf ledger (see benchmarks/ledger/README.md).")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload "
                             f"(default {NOMINAL_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: half the seconds untraced, half traced; "
                             "per-layer table and per-layer JSON line")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat the suite K times (same seed, "
                             "alternating order) and check spreads")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:g} s phases: smoke run, "
                             "numbers not comparable")
    parser.add_argument("--out", help="append result rows (JSON lines)")
    args = parser.parse_args(argv)
    if args.sets > 1 and args.trace:
        parser.error("--sets measures end-to-end spreads; run it with --trace 0")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    seconds = args.seconds or (QUICK_SECONDS if args.quick else NOMINAL_SECONDS)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.quick:
        print("quick mode: short phases, numbers are not comparable")

    ok = True
    series: dict[tuple[str, str], list[float]] = {}
    for k in range(args.sets):
        order = workloads if k % 2 == 0 else list(reversed(workloads))
        if args.sets > 1:
            print(f"\n#### set {k + 1} of {args.sets}: {', '.join(order)}")
        for workload in order:
            good, values = run_one(
                workload, args.seed, seconds, bool(args.trace), args.quick,
                args.out)
            ok = ok and good
            for name, value in values.items():
                series.setdefault((workload, name), []).append(value)
    if args.sets > 1:
        ok = print_spreads(
            {k: v for k, v in series.items() if len(v) == args.sets},
            args.sets) and ok
    if args.sets > 1 or len(workloads) > 1:
        print("\nall checks passed" if ok else "\nFAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
