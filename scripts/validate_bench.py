#!/usr/bin/env python3
"""Schema and invariant checks for bench result JSON files.

Validates BENCH_serve.json (serving layer), BENCH_fusion.json (operator
fusion), and BENCH_persist.json (durable tier); the file's "bench" field
selects the checker. CI runs this right after each bench so a malformed
result file -- or a regression that erases the benchmark's headline claim --
fails the pipeline:

  python3 scripts/validate_bench.py BENCH_serve.json
  python3 scripts/validate_bench.py BENCH_fusion.json
  python3 scripts/validate_bench.py BENCH_persist.json

Serve checks:
  * top-level schema (bench name, tables, metrics snapshot);
  * the three tables exist with the expected series and row labels;
  * latency quantiles are positive and monotone (p50 <= p95 <= p99);
  * outcome accounting in the overload table is exact and shows explicit
    shedding (rejections/expiries, never silent drops);
  * shared mode's lineage hit rate materially beats per-session mode's
    (the tentpole claim; the p95 comparison is reported but advisory,
    since wall-clock timing on loaded CI hosts is noisy);
  * the observer effect is bounded: over one closed-loop client whose
    requests alternate tracing + journal on and off, the geometric mean
    across workloads of median latency on / median latency off must stay
    within 3% -- note the table is absent when the bench ran with
    --trace/--journal, so validate only unobserved runs;
  * the metrics snapshot carries the serve.* counters.

Fusion checks:
  * fused wall-clock <= unfused on the elementwise-chain micro (the
    one-memory-pass claim; min-of-5 timing, small noise allowance);
  * fused simulated seconds <= unfused on every paper pipeline, with a
    measurable (> 1x) speedup on at least one;
  * every identity check is exactly 1 (fusion never changes results);
  * the metrics snapshot carries fusion.* counters showing groups actually
    formed and executed, with zero fallbacks in a clean bench run.

Persist checks:
  * the cold phase's first-request hit rate is exactly 0 (an empty
    directory has nothing to hit) while the warm phase's is positive --
    the restart claim: bytes written by the cold phase's shutdown came
    back through the segment log;
  * the warm phase saw cross-session hits;
  * latency rows are positive;
  * every cross-restart identity check is exactly 1 (a warm restart never
    changes an answer);
  * the metrics snapshot shows the disk tier actually wrote and re-read
    bytes, the store rehydrated entries, and recovery saw zero corrupt
    records in a clean run.

Federated-serve checks (BENCH_federated_serve.json):
  * cross-site reuse: shared hit rate > 0 while the isolated leg is exactly
    0.000, with every aggregate bitwise-identical between the two legs;
  * async vs sync: stale-bounded rounds finish strictly sooner than the
    synchronous coordinator under skewed site speeds (virtual time, so the
    gate is exact, no noise allowance), with stale contributions actually
    used and bitwise-identical aggregates;
  * site kill: completed + shed + failed_over == affected (exactly-once,
    never a silent drop), and every failed-over request completed at a
    survivor;
  * the metrics snapshot carries the federated.* and fabric.* counters and
    shows cross-site fetches were charged (fabric.exchange_bytes > 0).
"""

import json
import math
import sys

REQUIRED_METRICS = (
    "serve.submitted",
    "serve.admitted",
    "serve.completed",
    "serve.rejected",
    "serve.session_reuse",
    "serve.session_rebuild",
    "serve.store.puts",
    "serve.store.warmed",
    "serve.double_records",
)

# Shared mode must beat per-session mode's hit rate by at least this much
# (absolute). The bench shows ~0.87 vs ~0.00; 0.2 leaves a wide margin.
MIN_HIT_RATE_GAIN = 0.2

# Observer-effect gate: requests with tracing + journal enabled must stay
# within 3% of requests with them disabled (the observability layer's cost
# contract), read as the geometric mean over workloads of the ratio of
# median request latencies.
OBSERVER_MAX_OVERHEAD = 1.03

# Verifier-effect gate: the static plan verifier in its release mode
# (summary) must stay within 2% of the verifier-off wall clock. The full
# mode is reported in the table but not gated -- debug/fuzz builds pay for
# re-derivation by design. The absolute slack is wider than the observer
# gate's: the smoke legs are sub-100ms and the summary/full columns invert
# run to run, so multi-millisecond scheduler jitter dominates the verifier's
# actual (memoized, once-per-unique-plan) cost; on real-length runs the
# percentage term governs.
VERIFIER_MAX_OVERHEAD = 1.02
VERIFIER_ABS_SLACK_S = 0.005


def fail(message):
    print(f"validate_bench: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def find_table(doc, title):
    for table in doc.get("tables", []):
        if table.get("title") == title:
            return table
    fail(f"missing table {title!r}")


def rows_by_config(table):
    rows = {}
    for row in table.get("rows", []):
        if "config" not in row or "seconds" not in row:
            fail(f"table {table['title']!r}: row missing config/seconds")
        if len(row["seconds"]) != len(table.get("series", [])):
            fail(f"table {table['title']!r} row {row['config']!r}: "
                 f"{len(row['seconds'])} values for "
                 f"{len(table.get('series', []))} series")
        rows[row["config"]] = row["seconds"]
    return rows


def check_serve(doc):
    if doc.get("bench") != "serve":
        fail(f"expected bench 'serve', got {doc.get('bench')!r}")
    if doc.get("wall_ms", 0) <= 0:
        fail("wall_ms must be positive")

    latency = find_table(doc, "Serve latency (s)")
    if latency.get("series") != ["per-session", "shared"]:
        fail(f"latency series mismatch: {latency.get('series')}")
    quantiles = rows_by_config(latency)
    for label in ("p50", "p95", "p99", "mean"):
        if label not in quantiles:
            fail(f"latency table missing row {label!r}")
        if any(v <= 0 for v in quantiles[label]):
            fail(f"latency {label} has non-positive values: {quantiles[label]}")
    for column in range(2):
        p50, p95, p99 = (quantiles["p50"][column], quantiles["p95"][column],
                         quantiles["p99"][column])
        if not p50 <= p95 <= p99:
            fail(f"non-monotone quantiles in column {column}: "
                 f"{p50} / {p95} / {p99}")

    reuse = find_table(doc, "Serve reuse")
    if reuse.get("series") != ["per-session", "shared"]:
        fail(f"reuse series mismatch: {reuse.get('series')}")
    rates = rows_by_config(reuse)
    if "lineage_hit_rate" not in rates:
        fail("reuse table missing lineage_hit_rate")
    per_session_rate, shared_rate = rates["lineage_hit_rate"]
    for rate in (per_session_rate, shared_rate):
        if not 0.0 <= rate <= 1.0:
            fail(f"hit rate out of [0, 1]: {rate}")
    if shared_rate < per_session_rate + MIN_HIT_RATE_GAIN:
        fail(f"shared hit rate {shared_rate:.3f} does not materially beat "
             f"per-session {per_session_rate:.3f} "
             f"(need +{MIN_HIT_RATE_GAIN})")

    observer = find_table(doc, "Serve observer effect (s)")
    if observer.get("series") != ["disabled", "enabled"]:
        fail(f"observer series mismatch: {observer.get('series')}")
    medians = {config: values
               for config, values in rows_by_config(observer).items()
               if config.startswith("p50_")}
    if not medians:
        fail("observer table has no p50_<workload> rows")
    log_ratio_sum = 0.0
    for config, (disabled_s, enabled_s) in medians.items():
        if disabled_s <= 0 or enabled_s <= 0:
            fail(f"non-positive observer {config}: {disabled_s} / {enabled_s}")
        log_ratio_sum += math.log(enabled_s / disabled_s)
    observer_ratio = math.exp(log_ratio_sum / len(medians))
    if observer_ratio > OBSERVER_MAX_OVERHEAD:
        fail(f"observer effect: median request latency with tracing+journal "
             f"is {observer_ratio:.3f}x the disabled one (geometric mean "
             f"over {len(medians)} workloads), more than "
             f"{(OBSERVER_MAX_OVERHEAD - 1) * 100:.0f}%")

    verifier = find_table(doc, "Serve verifier effect (s)")
    if verifier.get("series") != ["off", "summary", "full"]:
        fail(f"verifier series mismatch: {verifier.get('series')}")
    verifier_walls = rows_by_config(verifier)
    if "wall_min_of_7" not in verifier_walls:
        fail("verifier table missing wall_min_of_7")
    off_s, summary_s, full_s = verifier_walls["wall_min_of_7"]
    if off_s <= 0 or summary_s <= 0 or full_s <= 0:
        fail(f"non-positive verifier wall times: "
             f"{off_s} / {summary_s} / {full_s}")
    if summary_s > off_s * VERIFIER_MAX_OVERHEAD + VERIFIER_ABS_SLACK_S:
        fail(f"verifier effect: summary-mode run {summary_s:.4f}s exceeds "
             f"verifier-off {off_s:.4f}s by more than "
             f"{(VERIFIER_MAX_OVERHEAD - 1) * 100:.0f}% "
             f"(ratio {summary_s / off_s:.3f})")

    overload = find_table(doc, "Serve overload")
    counts = rows_by_config(overload)
    for label in ("completed", "rejected", "expired", "failed", "total"):
        if label not in counts:
            fail(f"overload table missing row {label!r}")
        value = counts[label][0]
        if value < 0 or value != int(value):
            fail(f"overload {label} is not a non-negative count: {value}")
    parts = sum(counts[label][0]
                for label in ("completed", "rejected", "expired", "failed"))
    if parts != counts["total"][0] or counts["total"][0] <= 0:
        fail(f"overload outcomes do not partition the total: "
             f"{parts} vs {counts['total'][0]}")
    if counts["failed"][0] != 0:
        fail(f"overload produced failures: {counts['failed'][0]}")
    if counts["rejected"][0] + counts["expired"][0] <= 0:
        fail("overload shed nothing: expected explicit rejections/expiries")

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail("metrics snapshot missing")
    for key in REQUIRED_METRICS:
        if key not in metrics:
            fail(f"metrics snapshot missing {key!r}")
    if metrics["serve.double_records"] != 0:
        fail(f"serve.double_records = {metrics['serve.double_records']} "
             "(an outcome was recorded twice)")

    # Advisory: the latency claim. Timing on shared CI hosts is too noisy
    # to gate on, so a miss is a loud warning, not a failure.
    if quantiles["p95"][1] > quantiles["p95"][0]:
        print(f"validate_bench: WARNING: shared p95 {quantiles['p95'][1]:.4f}s "
              f"not below per-session {quantiles['p95'][0]:.4f}s")
    print(f"validate_bench: OK: hit rate {per_session_rate:.3f} -> "
          f"{shared_rate:.3f}, p95 {quantiles['p95'][0] * 1e3:.2f}ms -> "
          f"{quantiles['p95'][1] * 1e3:.2f}ms, observer effect "
          f"{observer_ratio:.3f}x, verifier effect "
          f"{summary_s / off_s:.3f}x (full {full_s / off_s:.3f}x), "
          f"overload shed "
          f"{int(counts['rejected'][0] + counts['expired'][0])}"
          f"/{int(counts['total'][0])}")


REQUIRED_FUSION_METRICS = ("fusion.groups_formed", "fusion.ops_fused",
                           "fusion.groups_executed", "fusion.composite_hits",
                           "fusion.fallback_unfused")

# Wall-clock noise allowance on the micro: the bench reports ~2x, so even a
# heavily loaded CI host has a wide margin before this trips.
MICRO_WALL_TOLERANCE = 1.05
# Simulated seconds are deterministic; the tolerance only absorbs printf
# rounding in the JSON.
SIM_TOLERANCE = 1.0001


def check_fusion(doc):
    if doc.get("bench") != "fusion":
        fail(f"expected bench 'fusion', got {doc.get('bench')!r}")
    if doc.get("wall_ms", 0) <= 0:
        fail("wall_ms must be positive")

    micro = find_table(
        doc, "Fusion micro: 6-op elementwise chain, wall seconds (min of 5)")
    if micro.get("series") != ["unfused", "fused"]:
        fail(f"micro series mismatch: {micro.get('series')}")
    micro_rows = rows_by_config(micro)
    if "2048x2048 chain" not in micro_rows:
        fail("micro table missing the 2048x2048 chain row")
    unfused_wall, fused_wall = micro_rows["2048x2048 chain"]
    if unfused_wall <= 0 or fused_wall <= 0:
        fail(f"non-positive micro wall times: {unfused_wall} / {fused_wall}")
    if fused_wall > unfused_wall * MICRO_WALL_TOLERANCE:
        fail(f"fused micro wall {fused_wall:.4f}s exceeds unfused "
             f"{unfused_wall:.4f}s: tile streaming lost its one-pass edge")

    pipelines = find_table(doc, "Fusion on paper pipelines, simulated seconds")
    if pipelines.get("series") != ["MPH-NF", "MPH"]:
        fail(f"pipeline series mismatch: {pipelines.get('series')}")
    pipeline_rows = rows_by_config(pipelines)
    if not pipeline_rows:
        fail("pipeline table has no rows")
    best_speedup = 0.0
    for label, (unfused, fused) in pipeline_rows.items():
        if unfused <= 0 or fused <= 0:
            fail(f"pipeline {label!r}: non-positive seconds")
        if fused > unfused * SIM_TOLERANCE:
            fail(f"pipeline {label!r}: fused {fused} slower than unfused "
                 f"{unfused} (fusion must never add simulated cost)")
        best_speedup = max(best_speedup, unfused / fused)
    if best_speedup <= 1.0:
        fail("no pipeline shows a measurable fused speedup (> 1x)")

    identity = find_table(doc,
                          "Fusion identity checks (1 = fused equals unfused)")
    for row in identity.get("rows", []):
        if row.get("seconds") != [1.0]:
            fail(f"identity check {row.get('config')!r} failed: "
                 f"{row.get('seconds')} (fusion changed a result)")

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail("metrics snapshot missing")
    for key in REQUIRED_FUSION_METRICS:
        if key not in metrics:
            fail(f"metrics snapshot missing {key!r}")
    if metrics["fusion.groups_formed"] <= 0:
        fail("fusion.groups_formed is zero: the pass never fired")
    if metrics["fusion.groups_executed"] <= 0:
        fail("fusion.groups_executed is zero: groups formed but never ran")
    if metrics["fusion.fallback_unfused"] != 0:
        fail(f"fusion.fallback_unfused = {metrics['fusion.fallback_unfused']} "
             "(a clean bench run should never hit the fallback path)")

    print(f"validate_bench: OK: micro {unfused_wall:.4f}s -> "
          f"{fused_wall:.4f}s ({unfused_wall / fused_wall:.2f}x), best "
          f"pipeline speedup {best_speedup:.2f}x, "
          f"{int(metrics['fusion.groups_formed'])} groups / "
          f"{int(metrics['fusion.ops_fused'])} ops fused, identities hold")


REQUIRED_PERSIST_METRICS = ("persist.puts", "persist.hits",
                            "persist.bytes_written", "persist.bytes_read",
                            "persist.corrupt_records",
                            "serve.store.rehydrated")


def check_persist(doc):
    if doc.get("bench") != "persist":
        fail(f"expected bench 'persist', got {doc.get('bench')!r}")
    if doc.get("wall_ms", 0) <= 0:
        fail("wall_ms must be positive")

    reuse = find_table(doc, "Persist warm restart, first request per tenant")
    if reuse.get("series") != ["cold", "warm"]:
        fail(f"reuse series mismatch: {reuse.get('series')}")
    rates = rows_by_config(reuse)
    for label in ("lineage_hit_rate", "cross_session_hits_per_req",
                  "warmed_per_req"):
        if label not in rates:
            fail(f"reuse table missing row {label!r}")
    cold_rate, warm_rate = rates["lineage_hit_rate"]
    if cold_rate != 0.0:
        fail(f"cold first-request hit rate is {cold_rate}, expected exactly 0 "
             "(the cold phase starts from an empty directory)")
    if warm_rate <= 0.0:
        fail(f"warm first-request hit rate is {warm_rate}: nothing survived "
             "the restart, the durable tier's headline claim is gone")
    if rates["cross_session_hits_per_req"][1] <= 0.0:
        fail("warm phase saw no cross-session hits")

    latency = find_table(doc, "Persist restart latency (s)")
    if latency.get("series") != ["cold", "warm"]:
        fail(f"latency series mismatch: {latency.get('series')}")
    times = rows_by_config(latency)
    for label in ("first_request_mean", "mean"):
        if label not in times:
            fail(f"latency table missing row {label!r}")
        if any(v <= 0 for v in times[label]):
            fail(f"latency {label} has non-positive values: {times[label]}")

    identity = find_table(doc,
                          "Persist identity checks (1 = warm equals cold)")
    if not identity.get("rows"):
        fail("identity table has no rows")
    for row in identity["rows"]:
        if row.get("seconds") != [1.0]:
            fail(f"identity check {row.get('config')!r} failed: "
                 f"{row.get('seconds')} (a restart changed a result)")

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail("metrics snapshot missing")
    for key in REQUIRED_PERSIST_METRICS:
        if key not in metrics:
            fail(f"metrics snapshot missing {key!r}")
    if metrics["persist.puts"] <= 0 or metrics["persist.bytes_written"] <= 0:
        fail("the durable tier never wrote anything")
    if metrics["persist.hits"] <= 0 or metrics["persist.bytes_read"] <= 0:
        fail("the durable tier never served a read back")
    if metrics["serve.store.rehydrated"] <= 0:
        fail("the warm phase rehydrated nothing from disk")
    if metrics["persist.corrupt_records"] != 0:
        fail(f"persist.corrupt_records = {metrics['persist.corrupt_records']} "
             "(a clean bench run should never see a bad checksum)")

    print(f"validate_bench: OK: first-request hit rate {cold_rate:.3f} -> "
          f"{warm_rate:.3f} across restart, "
          f"{int(metrics['serve.store.rehydrated'])} entries rehydrated, "
          f"{int(metrics['persist.bytes_written'])} bytes logged, "
          "identities hold")


REQUIRED_FEDERATED_METRICS = ("federated.rounds", "federated.transfer_bytes",
                              "fabric.rounds", "fabric.stale_contributions",
                              "fabric.store.publishes",
                              "fabric.store.cross_site_warms",
                              "fabric.exchange_bytes", "fabric.submitted",
                              "fabric.shed", "fabric.failed_over")


def check_federated_serve(doc):
    if doc.get("bench") != "federated_serve":
        fail(f"expected bench 'federated_serve', got {doc.get('bench')!r}")
    if doc.get("wall_ms", 0) <= 0:
        fail("wall_ms must be positive")

    reuse = find_table(doc, "Federated cross-site reuse")
    if reuse.get("series") != ["isolated", "shared"]:
        fail(f"reuse series mismatch: {reuse.get('series')}")
    reuse_rows = rows_by_config(reuse)
    for label in ("cross_site_hit_rate", "fabric_store_entries",
                  "final_seconds", "bitwise_identical"):
        if label not in reuse_rows:
            fail(f"reuse table missing row {label!r}")
    isolated_rate, shared_rate = reuse_rows["cross_site_hit_rate"]
    if isolated_rate != 0.0:
        fail(f"isolated cross-site hit rate is {isolated_rate}, expected "
             "exactly 0 (no fabric store means nothing can cross sites)")
    if shared_rate <= 0.0:
        fail(f"shared cross-site hit rate is {shared_rate}: the fabric "
             "store never warmed a site, the cross-site reuse claim is gone")
    if reuse_rows["fabric_store_entries"][1] <= 0:
        fail("the fabric store holds no entries after the shared run")
    if reuse_rows["bitwise_identical"] != [1.0, 1.0]:
        fail(f"cross-site reuse changed an aggregate: "
             f"bitwise_identical = {reuse_rows['bitwise_identical']}")

    speed = find_table(doc, "Federated async vs sync (skewed speeds)")
    if speed.get("series") != ["sync", "async"]:
        fail(f"async-vs-sync series mismatch: {speed.get('series')}")
    speed_rows = rows_by_config(speed)
    for label in ("final_seconds", "rounds_per_second", "stale_contributions",
                  "fresh_transfers", "bitwise_identical"):
        if label not in speed_rows:
            fail(f"async-vs-sync table missing row {label!r}")
    sync_s, async_s = speed_rows["final_seconds"]
    if sync_s <= 0 or async_s <= 0:
        fail(f"non-positive final times: {sync_s} / {async_s}")
    # Virtual time is deterministic, so the gate is strict: with one
    # straggler, stale-bounded rounds must finish sooner than lockstep.
    if async_s >= sync_s:
        fail(f"async final time {async_s} is not below sync {sync_s}: "
             "a slow site stalled the fleet")
    sync_tput, async_tput = speed_rows["rounds_per_second"]
    if async_tput < sync_tput:
        fail(f"async throughput {async_tput} below sync {sync_tput}")
    if speed_rows["stale_contributions"][1] <= 0:
        fail("async run used no stale contributions: the staleness bound "
             "never engaged, so the comparison is vacuous")
    if speed_rows["bitwise_identical"] != [1.0, 1.0]:
        fail(f"staleness changed an aggregate: "
             f"bitwise_identical = {speed_rows['bitwise_identical']}")

    kill = find_table(doc, "Fabric site-kill accounting")
    counts = rows_by_config(kill)
    for label in ("affected", "completed", "shed", "failed_over", "accounted",
                  "exactly_once", "resolved_completed"):
        if label not in counts:
            fail(f"site-kill table missing row {label!r}")
        value = counts[label][0]
        if value < 0 or value != int(value):
            fail(f"site-kill {label} is not a non-negative count: {value}")
    affected = counts["affected"][0]
    accounted = (counts["completed"][0] + counts["shed"][0] +
                 counts["failed_over"][0])
    if affected <= 0:
        fail("site kill affected no requests: the scenario never fired")
    if accounted != affected or counts["exactly_once"][0] != 1.0:
        fail(f"site-kill accounting is not exactly-once: "
             f"{accounted} accounted vs {affected} affected")
    if counts["resolved_completed"][0] < counts["failed_over"][0]:
        fail(f"only {counts['resolved_completed'][0]} failed-over requests "
             f"completed at a survivor (expected >= "
             f"{counts['failed_over'][0]})")

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail("metrics snapshot missing")
    for key in REQUIRED_FEDERATED_METRICS:
        if key not in metrics:
            fail(f"metrics snapshot missing {key!r}")
    if metrics["fabric.rounds"] <= 0:
        fail("fabric.rounds is zero: the round engine never ran")
    if metrics["fabric.exchange_bytes"] <= 0:
        fail("fabric.exchange_bytes is zero: cross-site fetches were free")

    print(f"validate_bench: OK: cross-site hit rate {isolated_rate:.3f} -> "
          f"{shared_rate:.3f}, async {sync_s / async_s:.2f}x faster than "
          f"sync at bitwise-identical aggregates, site kill accounted "
          f"{int(accounted)}/{int(affected)} exactly once")


CHECKERS = {"serve": check_serve, "fusion": check_fusion,
            "persist": check_persist,
            "federated_serve": check_federated_serve}


def main():
    if len(sys.argv) != 2:
        print("usage: validate_bench.py BENCH_<name>.json", file=sys.stderr)
        return 2
    try:
        with open(sys.argv[1], encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot load {sys.argv[1]}: {error}")
    checker = CHECKERS.get(doc.get("bench"))
    if checker is None:
        fail(f"no checker for bench {doc.get('bench')!r} "
             f"(known: {sorted(CHECKERS)})")
    checker(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
