"""Built-in campaign matrices.

The ready-made campaigns cover the axes the paper's claims range over:

* ``wan-storm`` — A1 under WAN latency sweeps (link delay × arrival
  rate), the Pod-style wide-area evaluation grid;
* ``crash-storm`` — the paper's protocols under seed-derived
  strict-minority crash schedules of varying aggressiveness;
* ``zipf-fanout`` — mostly-local Zipf destination traffic as the group
  count grows, the partial-replication access pattern that motivates
  genuine multicast;
* ``cross-protocol`` — one workload plan driven through A1 and every
  baseline, property-checked on each: the strongest cross-validation
  the repository offers, now as a single declarative matrix;
* ``fd-overhead`` — the same workload under the oracle detector and
  real message-driven heartbeats: failure-detector traffic is pure
  overhead in crash-free runs, and this grid measures it;
* ``torture`` — the paper's four protocols (A1, A1-noskip, A2 and the
  non-genuine wrapper) under every built-in adversary: latency-skewed
  links, bounded delay/reorder, partition spikes and phase-boundary
  crashes.  The uniform properties must hold on *every* schedule an
  adversary can construct within the model; ``repro.cli torture``
  drives this grid through the explorer and shrinks any failure to a
  minimal replayable counterexample;
* ``lossy-net`` — dropping/duplicating/corrupting channels (three
  severities plus Gilbert–Elliott bursts, faults stopping at a
  horizon) × three protocols, all riding the reliable transport:
  every cell must satisfy the uniform properties *and* self-stabilize
  once the faults stop, with the transport's masking cost metered;
* ``store-scaling`` — the transactional partitioned store (one-shot
  multi-partition transactions, see :mod:`repro.store`) at 4/6/8
  groups under genuine A1, the non-genuine wrapper and
  broadcast-everything A2: serializability checked everywhere,
  per-group involvement quantifying that genuineness keeps
  non-destination groups idle;
* ``txn-mix`` — the store's YCSB-style mix grid (read fraction ×
  multi-partition ratio) on A1;
* ``rebalance`` — elastic repartitioning (see :mod:`repro.reconfig`)
  vs the frozen epoch-0 map under zipf-skewed load at 16/24 groups,
  with adversary cells aimed at the migration window: committed
  throughput quantifies what online key-range migration buys, with
  serializability and the reconfig checker green as the precondition;
* ``rate-sweep`` — Section 5.3: A2 over 100 ms links as the Poisson
  broadcast rate grows from 0.5 to 50 msg/s.

:mod:`repro.paper` measures Section 5.3's rate claims on the
``rate-sweep`` scenarios.  Each builder returns a :class:`Campaign`;
pass ``seeds`` to widen or narrow the per-scenario seed list (the CLI's
``--seeds`` does).
``repro.cli campaign <name>`` is the front door.
"""

from __future__ import annotations

from dataclasses import replace as dataclasses_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaigns.runner import Campaign, CampaignResult
from repro.campaigns.spec import (
    CrashSpec,
    DestinationSpec,
    LatencySpec,
    ScenarioSpec,
    StoreSpec,
    WorkloadSpec,
    matrix,
    with_seeds,
)

DEFAULT_SEEDS: Tuple[int, ...] = (1, 2)


def wan_storm(seeds: Optional[Sequence[int]] = None) -> Campaign:
    """A1 across a WAN grid: inter-group delay × Poisson arrival rate."""
    base = ScenarioSpec(
        name="wan",
        protocol="a1",
        group_sizes=(3, 3, 3),
        latency=LatencySpec.wan(intra_ms=1.0, inter_ms=100.0,
                                inter_jitter_ms=2.0),
        workload=WorkloadSpec(
            kind="poisson", rate=0.01, duration=3_000.0,
            destinations=DestinationSpec(kind="uniform-k", k=2),
        ),
        seeds=tuple(seeds or DEFAULT_SEEDS),
        checkers=("properties", "genuineness"),
    )
    scenarios = matrix(base, {
        "latency.inter_ms": [50.0, 100.0, 200.0],
        "workload.rate": [0.005, 0.02],
    })
    return Campaign(
        name="wan-storm", scenarios=scenarios,
        description="A1 genuine multicast over a WAN latency x rate grid",
    )


def crash_storm(seeds: Optional[Sequence[int]] = None) -> Campaign:
    """Protocols under seed-derived strict-minority crash schedules."""
    base = ScenarioSpec(
        name="crash",
        protocol="a1",
        group_sizes=(3, 3),
        workload=WorkloadSpec(kind="periodic", period=2.0, count=12),
        crashes=CrashSpec(kind="random-minority", window=30.0,
                          probability=0.8),
        seeds=tuple(seeds or DEFAULT_SEEDS),
        checkers=("properties",),
    )
    scenarios = matrix(base, {
        "protocol": ["a1", "a1-noskip", "a2"],
        "crashes.window": [15.0, 30.0],
    })
    return Campaign(
        name="crash-storm", scenarios=scenarios,
        description="uniformity under random minority crashes, "
                    "two crash-window aggressiveness levels",
    )


def zipf_fanout(seeds: Optional[Sequence[int]] = None) -> Campaign:
    """Zipf-skewed destination counts as the system gains groups."""
    base = ScenarioSpec(
        name="zipf",
        protocol="a1",
        group_sizes=(2, 2, 2),
        workload=WorkloadSpec(
            kind="poisson", rate=0.5, duration=20.0,
            destinations=DestinationSpec(kind="zipf", max_k=3, skew=1.5),
        ),
        seeds=tuple(seeds or DEFAULT_SEEDS),
        checkers=("properties", "genuineness"),
    )
    scenarios = matrix(base, {
        "group_sizes": [(2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2)],
        "workload.destinations.skew": [1.0, 2.0],
    })
    return Campaign(
        name="zipf-fanout", scenarios=scenarios,
        description="mostly-local Zipf traffic; genuineness must keep "
                    "bystander groups silent as the system grows",
    )


def cross_protocol(seeds: Optional[Sequence[int]] = None) -> Campaign:
    """One workload, A1 vs every baseline, same laws checked on each."""
    seeds = tuple(seeds or DEFAULT_SEEDS)
    mcast_base = ScenarioSpec(
        name="mcast",
        group_sizes=(2, 2, 2),
        workload=WorkloadSpec(
            kind="poisson", rate=1.2, duration=80.0,
            destinations=DestinationSpec(kind="uniform-k", k=2),
        ),
        seeds=seeds,
        checkers=("properties", "genuineness"),
    )
    bcast_base = ScenarioSpec(
        name="bcast",
        group_sizes=(2, 2),
        workload=WorkloadSpec(kind="poisson", rate=0.8, duration=80.0),
        seeds=seeds,
        checkers=("properties",),
    )
    scenarios = (
        matrix(mcast_base, {"protocol": ["a1", "a1-noskip", "skeen",
                                         "fritzke", "ring", "global"]})
        + matrix(bcast_base, {"protocol": ["a2", "sequencer",
                                           "optimistic", "detmerge"]})
    )
    return Campaign(
        name="cross-protocol", scenarios=scenarios,
        description="A1 and nine related-work protocols under one shared "
                    "workload plan, paper properties checked on every run",
    )


def fd_overhead(seeds: Optional[Sequence[int]] = None) -> Campaign:
    """Oracle vs heartbeat detector cost, A1 and A2.

    Failure-detector traffic is pure overhead in crash-free executions
    (Aspnes' classic observation), so the grid quantifies it: the same
    workload under the oracle detector and under real message-driven
    heartbeats, whose per-seed metrics must match the oracle's on
    everything but traffic and kernel-event counts.  The heartbeat
    horizon sits past the workload tail so every run quiesces.
    """
    base = ScenarioSpec(
        name="fd",
        protocol="a1",
        group_sizes=(3, 3),
        workload=WorkloadSpec(
            kind="poisson", rate=0.5, duration=60.0,
            destinations=DestinationSpec(kind="uniform-k", k=2),
        ),
        seeds=tuple(seeds or DEFAULT_SEEDS),
        checkers=("properties",),
        heartbeat_period=5.0,
        heartbeat_timeout=20.0,
        heartbeat_horizon=150.0,
    )
    bcast = dataclasses_replace(
        base, protocol="a2",
        workload=WorkloadSpec(kind="poisson", rate=0.4, duration=60.0),
        name="fd-bcast",
    )
    detectors = ["perfect", "heartbeat"]
    scenarios = (matrix(base, {"detector": detectors})
                 + matrix(bcast, {"detector": detectors}))
    return Campaign(
        name="fd-overhead", scenarios=scenarios,
        description="failure-detector cost: oracle vs real heartbeats",
    )


def torture(seeds: Optional[Sequence[int]] = None) -> Campaign:
    """The paper's protocols × every built-in adversary.

    The axis order (adversary outer, protocol inner) is deliberate:
    smoke runs that truncate with ``--max-scenarios 4`` still cover two
    adversaries × two protocols rather than four adversaries × one.
    """
    seeds = tuple(seeds or DEFAULT_SEEDS)
    adversaries = ["link-skew", "delay-reorder", "partition-spike",
                   "phase-crash"]
    genuine = ScenarioSpec(
        name="torture",
        protocol="a1",
        group_sizes=(3, 3),
        workload=WorkloadSpec(
            kind="poisson", rate=1.0, duration=30.0,
            destinations=DestinationSpec(kind="uniform-k", k=2),
        ),
        seeds=seeds,
        checkers=("properties", "genuineness"),
    )
    nongenuine = dataclasses_replace(
        genuine, name="torture-ng", protocol="nongenuine",
        checkers=("properties",),  # non-genuine by design
    )
    bcast = dataclasses_replace(
        genuine, name="torture-bc", protocol="a2",
        workload=WorkloadSpec(kind="poisson", rate=0.8, duration=30.0),
        checkers=("properties",),
    )
    scenarios = (
        matrix(genuine, {"adversary": adversaries,
                         "protocol": ["a1", "a1-noskip"]})
        + matrix(nongenuine, {"adversary": adversaries})
        + matrix(bcast, {"adversary": adversaries})
    )
    return Campaign(
        name="torture", scenarios=scenarios,
        description="A1/A1-noskip/A2/nongenuine under all built-in "
                    "adversaries; uniform properties checked per run",
    )


def lossy_net(seeds: Optional[Sequence[int]] = None) -> Campaign:
    """Protocols over genuinely lossy channels, transport mounted.

    The four lossy adversaries (5%/15%/30% i.i.d. loss plus the bursty
    Gilbert–Elliott composition, each with duplication and checksum
    corruption mixed in and an ``until=25`` horizon) × three protocols,
    all with ``transport="reliable"``: the retransmitting transport must
    mask every channel fault, so the uniform properties *and* the
    stabilization checker (faults stop → transport drains → system
    quiesces) hold on every cell, while the ``transport`` metric family
    prices the masking in retransmissions, suppressed duplicates and
    ack overhead.

    The axis order (adversary outer, protocol inner) matches
    :func:`torture`: a ``--max-scenarios 2`` smoke still covers two
    protocols under loss rather than two severities of one protocol.
    """
    base = ScenarioSpec(
        name="lossy",
        protocol="a1",
        group_sizes=(2, 2),
        workload=WorkloadSpec(
            kind="poisson", rate=1.0, duration=20.0,
            destinations=DestinationSpec(kind="uniform-k", k=2),
        ),
        seeds=tuple(seeds or DEFAULT_SEEDS),
        transport="reliable",
        checkers=("properties", "stabilization"),
        metrics=("core", "latency", "traffic", "transport"),
    )
    scenarios = matrix(base, {
        "adversary": ["lossy-light", "lossy-medium", "lossy-heavy",
                      "lossy-burst"],
        "protocol": ["a1", "a2", "nongenuine"],
    })
    # A2 is proactive: its rounds only start when asked to.
    scenarios = [
        dataclasses_replace(spec, start_rounds=True)
        if spec.protocol == "a2" else spec
        for spec in scenarios
    ]
    return Campaign(
        name="lossy-net", scenarios=scenarios,
        description="drop/duplicate/corrupt channels under the reliable "
                    "transport: properties plus self-stabilization on "
                    "every cell, masking cost measured",
    )


def store_scaling(seeds: Optional[Sequence[int]] = None) -> Campaign:
    """The transactional store as the deployment gains groups.

    Three protocols over the same transaction plan (four data
    partitions, zipf keys, 40% multi-partition mix) at 4, 6 and 8
    groups — the groups beyond the first four own no data, so they are
    the measurement instrument for the genuineness claim:

    * ``a1`` (genuine routing): non-destination groups exchange **zero**
      protocol messages (``nondest_messages`` metric);
    * ``nongenuine`` (same destination sets, broadcast underneath): the
      very same transactions now drag every group in;
    * ``a2`` with ``routing="broadcast"``: the broadcast-everything
      store — every group receives, orders and filters every
      transaction.

    Every scenario runs the one-copy-serializability and convergence
    checkers; the a1 scenarios additionally assert genuineness.
    """
    seeds = tuple(seeds or DEFAULT_SEEDS)
    store = StoreSpec(
        n_keys=48, data_groups=(0, 1, 2, 3), routing="genuine",
        rate=0.8, duration=40.0, read_fraction=0.5,
        multi_partition_fraction=0.4, ops_per_txn=2, zipf_skew=1.0,
    )
    sizes = [(2, 2, 2, 2), (2, 2, 2, 2, 2, 2), (2,) * 8]
    base = ScenarioSpec(
        name="store",
        protocol="a1",
        group_sizes=sizes[0],
        store=store,
        seeds=seeds,
        checkers=("properties", "serializability", "convergence",
                  "genuineness"),
        metrics=("core", "latency", "traffic", "store", "involvement"),
    )
    nongenuine = dataclasses_replace(
        base, name="store-ng", protocol="nongenuine",
        checkers=("properties", "serializability", "convergence"),
    )
    bcast = dataclasses_replace(
        base, name="store-bc", protocol="a2",
        store=dataclasses_replace(store, routing="broadcast"),
        checkers=("properties", "serializability", "convergence"),
    )
    scenarios = (matrix(base, {"group_sizes": sizes})
                 + matrix(nongenuine, {"group_sizes": sizes})
                 + matrix(bcast, {"group_sizes": sizes}))
    return Campaign(
        name="store-scaling", scenarios=scenarios,
        description="transactional store at 4/6/8 groups: genuine A1 vs "
                    "nongenuine vs broadcast-everything; serializability "
                    "checked, per-group involvement measured",
    )


def txn_mix(seeds: Optional[Sequence[int]] = None) -> Campaign:
    """A1 store under the YCSB-style mix grid.

    Read fraction × multi-partition ratio, four data partitions: the
    serving layer must stay one-copy serialisable whether the workload
    is read-heavy and local or write-heavy and cross-partition, and the
    commit-latency metrics quantify what the mix costs.
    """
    base = ScenarioSpec(
        name="mix",
        protocol="a1",
        group_sizes=(2, 2, 2, 2),
        store=StoreSpec(
            n_keys=48, routing="genuine", rate=1.0, duration=40.0,
            ops_per_txn=2, zipf_skew=1.2,
        ),
        seeds=tuple(seeds or DEFAULT_SEEDS),
        checkers=("properties", "serializability", "convergence",
                  "genuineness"),
        metrics=("core", "latency", "store", "involvement"),
    )
    scenarios = matrix(base, {
        "store.read_fraction": [0.95, 0.5, 0.1],
        "store.multi_partition_fraction": [0.1, 0.5],
    })
    return Campaign(
        name="txn-mix", scenarios=scenarios,
        description="store read/write x multi-partition mix grid on A1; "
                    "serializability and genuineness checked per cell",
    )


def rebalance(seeds: Optional[Sequence[int]] = None) -> Campaign:
    """Elastic repartitioning vs a static map under zipf skew.

    Sixteen to twenty-four data groups with ring placement, a global
    zipf-1.0 key popularity and a per-transaction service cost: the
    hottest partition's execution queue is the bottleneck, so committed
    transactions per virtual second measure how much the
    :class:`~repro.reconfig.balancer.LoadBalancer`'s online key-range
    migrations buy over the frozen epoch-0 assignment.  The skew is
    deliberately moderate — at zipf ≥ 1.2 the single hottest key alone
    saturates whichever group owns it, and no key-*range* migration can
    split one indivisible key, so the imbalance the balancer can
    actually fix is the placement-induced kind: several moderately hot
    keys ring-hashed onto the same group.  The grid's inner axis is
    ``rebalance_interval`` ``{0, 10}`` — the *same* workload plan with
    the balancer off and on — and every cell runs
    the one-copy-serializability, convergence and reconfig checkers, so
    the speedup is only reported on runs where migration provably
    preserved the paper's guarantees.

    Two adversary cells aim bounded delay/reordering and
    phase-boundary crashes at the migration window (balancer on, same
    grid parameters); ``repro.cli torture --campaign rebalance`` drives
    the explorer over the grid and shrinks any failure to a minimal
    replayable counterexample.
    """
    seeds = tuple(seeds or DEFAULT_SEEDS)
    store = StoreSpec(
        n_keys=96, routing="genuine", placement="ring",
        rate=1.5, duration=150.0, read_fraction=0.5,
        multi_partition_fraction=0.4, ops_per_txn=2,
        zipf_skew=1.0, popularity="global",
        service_time=2.5, notice_delay=0.5,
        rebalance_interval=10.0, rebalance_threshold=1.3,
    )
    base = ScenarioSpec(
        name="rebalance",
        protocol="a1",
        group_sizes=(2,) * 16,
        store=store,
        seeds=seeds,
        checkers=("properties", "serializability", "convergence",
                  "reconfig"),
        metrics=("core", "latency", "traffic", "store", "reconfig"),
    )
    # The arrival rate scales with the group count so per-partition
    # pressure stays comparable: a rate that saturates 16 groups spreads
    # thin over 24, and an unsaturated static map leaves the balancer
    # nothing to win.
    benign = []
    for n_groups, rate in ((16, 1.5), (24, 2.25)):
        cell = dataclasses_replace(
            base, name=f"rebalance-{n_groups}g",
            group_sizes=(2,) * n_groups,
            store=dataclasses_replace(store, rate=rate))
        benign += matrix(cell, {"store.rebalance_interval": [0.0, 10.0]})
    # Adversary cells run three replicas per group so the phase-crash
    # injector can take a member of a group mid-migration and still
    # leave the strict majority the protocol needs.
    adversarial = matrix(
        dataclasses_replace(base, name="rebalance-adv",
                            group_sizes=(3,) * 16),
        {"adversary": ["delay-reorder", "phase-crash"]},
    )
    return Campaign(
        name="rebalance", scenarios=benign + adversarial,
        description="elastic repartitioning vs static map under zipf "
                    "skew at 16/24 groups; serializability and reconfig "
                    "checked on every cell, adversaries aimed at the "
                    "migration window",
        compare=rebalance_comparison,
    )


def rebalance_comparison(
        result: CampaignResult) -> Tuple[str, List[dict]]:
    """Static-vs-online committed throughput, one row per group count.

    Pairs each benign balancer-off cell with its balancer-on twin; a
    pair truncated by ``--max-scenarios`` is left out.
    """
    arms: Dict[int, Dict[str, ScenarioSpec]] = {}
    for spec in result.campaign.scenarios:
        if spec.adversary not in (None, "none") or spec.store is None:
            continue
        arm = "rebalance" if spec.store.rebalance_interval > 0 else "static"
        arms.setdefault(len(spec.group_sizes), {})[arm] = spec
    lines = [
        "committed throughput: static epoch-0 map vs online rebalance",
        f"  {'groups':>6s} {'static':>8s} {'rebal':>8s} {'gain':>7s} "
        f"{'migs':>5s} {'moved':>6s} {'bounces':>8s}",
    ]
    rows = []
    for n_groups in sorted(arms):
        pair = arms[n_groups]
        if len(pair) != 2:
            continue
        aggs = {arm: result.aggregates(spec.name)
                for arm, spec in pair.items()}
        static = aggs["static"]["txns_per_vtime"].mean
        rebal = aggs["rebalance"]["txns_per_vtime"].mean
        gain = 100.0 * (rebal - static) / static if static else 0.0
        migs = aggs["rebalance"]["reconfigs_completed"].mean
        moved = aggs["rebalance"]["reconfig_keys_moved"].mean
        bounces = aggs["rebalance"]["wrong_epoch_bounces"].mean
        lines.append(f"  {n_groups:>6d} {static:>8.3f} {rebal:>8.3f} "
                     f"{gain:>+6.1f}% {migs:>5.1f} {moved:>6.1f} "
                     f"{bounces:>8.1f}")
        rows.append({
            "n_groups": n_groups, "static_tps": round(static, 4),
            "rebalance_tps": round(rebal, 4), "gain_pct": round(gain, 2),
            "migrations": migs, "keys_moved": moved, "bounces": bounces,
        })
    return "\n".join(lines), rows


def rate_scenario(rate_per_s: float,
                  duration_ms: float = 20_000.0) -> ScenarioSpec:
    """A2 broadcasting at ``rate_per_s`` over 100 ms links (1 unit = 1 ms)."""
    return ScenarioSpec(
        name=f"rate={rate_per_s:g}",
        protocol="a2",
        group_sizes=(3, 3),
        latency=LatencySpec.wan(intra_ms=1.0, inter_ms=100.0,
                                inter_jitter_ms=2.0),
        workload=WorkloadSpec(kind="poisson", rate=rate_per_s / 1000.0,
                              duration=duration_ms),
        seeds=(1,),
        checkers=("properties",),
        metrics=("degrees", "latency", "rounds"),
        # 5 ms bundling window: every round starts 5 ms later so that
        # casts landing inside it ride at degree 1 — sim-time latency
        # traded for degree (÷10 a2_bcast, one round in flight: 0 / 0.05
        # / 0.2 / 0.5 of a hop -> p50 1.509 / 1.539 / 1.605 / 1.738).
        protocol_kwargs=(("propose_delay", 5.0),),
    )


def rate_sweep(seeds: Optional[Sequence[int]] = None) -> Campaign:
    """Section 5.3: A2's useful rounds and latency as the rate grows."""
    scenarios = with_seeds(
        [rate_scenario(rate)
         for rate in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)],
        seeds or (1,))
    return Campaign(
        name="rate-sweep", scenarios=scenarios,
        description="Section 5.3 A2 broadcast-rate sweep (100 ms WAN)",
    )


CampaignBuilder = Callable[..., Campaign]

CAMPAIGNS: Dict[str, CampaignBuilder] = {
    "wan-storm": wan_storm,
    "crash-storm": crash_storm,
    "zipf-fanout": zipf_fanout,
    "cross-protocol": cross_protocol,
    "fd-overhead": fd_overhead,
    "torture": torture,
    "lossy-net": lossy_net,
    "store-scaling": store_scaling,
    "txn-mix": txn_mix,
    "rebalance": rebalance,
    "rate-sweep": rate_sweep,
}


def get_campaign(name: str,
                 seeds: Optional[Sequence[int]] = None) -> Campaign:
    """Look a built-in campaign up by name, under ``seeds`` if given."""
    if name not in CAMPAIGNS:
        raise KeyError(
            f"unknown campaign {name!r}; have {sorted(CAMPAIGNS)}"
        )
    # `is not None`, not truthiness: the builders read an empty list
    # as "use the defaults".
    if seeds is not None and not seeds:
        raise ValueError("at least one seed is required")
    return CAMPAIGNS[name](seeds=seeds)
