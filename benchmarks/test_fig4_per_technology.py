"""Fig. 4 — per-technology throughput and RTT CDFs while driving.

Paper anchors: mmWave DL can exceed 1 Gbps while driving but with a deep low
tail; T-Mobile midband reaches ~760 Mbps DL and fluctuates hugely (40% of
samples below 2 Mbps); midband RTT below 5G-low and 4G RTTs; Verizon's edge
servers cut RTT sharply (mmWave+edge median 18 ms).

The midband-vs-LTE RTT ordering is asserted on the samples of every
``SEED_SWEEP`` campaign pooled: one campaign's midband median can rest on a
dozen samples.
"""

from repro.analysis.performance import (
    edge_vs_cloud_rtt,
    per_technology_rtt,
    per_technology_throughput,
)
from repro.net.servers import ServerKind
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from repro.reporting.tables import render_table


def _compute(dataset):
    tput = {
        (op, d): per_technology_throughput(dataset, op, d)
        for op in Operator
        for d in ("downlink", "uplink")
    }
    rtt = {op: per_technology_rtt(dataset, op) for op in Operator}
    edge = edge_vs_cloud_rtt(dataset)
    return tput, rtt, edge


def test_fig4_per_technology(benchmark, dataset, seed_sweep_catalog, report):
    tput, rtt, edge = benchmark.pedantic(_compute, args=(dataset,), rounds=1, iterations=1)
    pooled = {op: per_technology_rtt(seed_sweep_catalog, op) for op in Operator}

    blocks = []
    for op in Operator:
        rows = []
        for tech in RadioTechnology:
            cdf_dl = tput[(op, "downlink")].get(tech)
            cdf_ul = tput[(op, "uplink")].get(tech)
            cdf_rtt = rtt[op].get(tech)
            cdf_pooled = pooled[op].get(tech)
            rows.append([
                tech.label,
                f"{cdf_dl.median:.1f}" if cdf_dl else "-",
                f"{cdf_dl.maximum:.0f}" if cdf_dl else "-",
                f"{cdf_ul.median:.1f}" if cdf_ul else "-",
                f"{cdf_rtt.median:.0f}" if cdf_rtt else "-",
                f"{cdf_pooled.median:.0f}" if cdf_pooled else "-",
            ])
        blocks.append(render_table(
            ["tech", "DL med", "DL max", "UL med", "RTT med", "RTT med (seeds)"],
            rows, title=f"Fig. 4 ({op.label})",
        ))
    report("fig4_per_technology", "\n\n".join(blocks))

    # T-Mobile midband: high ceiling, huge fluctuation (§5.2 obs. 3).
    t_mid = tput[(Operator.TMOBILE, "downlink")].get(RadioTechnology.NR_MID)
    assert t_mid is not None
    # Paper: up to 760 Mbps over the full 8-day dataset; at bench scale we
    # only require the heavy upper tail to be present.
    assert t_mid.maximum > 150.0
    assert t_mid.prob_below(5.0) > 0.15
    # Midband DL ceiling: T-Mobile above Verizon and AT&T (§5.2 obs. 3).
    v_mid = tput[(Operator.VERIZON, "downlink")].get(RadioTechnology.NR_MID)
    if v_mid is not None:
        assert t_mid.maximum > v_mid.maximum * 0.8
    # RTT: midband below LTE for every operator with data (Fig. 4 right),
    # over the pooled seeds.
    for op in Operator:
        cdfs = pooled[op]
        if RadioTechnology.NR_MID in cdfs and RadioTechnology.LTE in cdfs:
            assert cdfs[RadioTechnology.NR_MID].median < cdfs[RadioTechnology.LTE].median
    # Verizon edge vs cloud RTT (§5.2): edge wins on shared technologies.
    if ServerKind.EDGE in edge and ServerKind.CLOUD in edge:
        shared = set(edge[ServerKind.EDGE]) & set(edge[ServerKind.CLOUD])
        for tech in shared:
            assert edge[ServerKind.EDGE][tech].median < edge[ServerKind.CLOUD][tech].median
