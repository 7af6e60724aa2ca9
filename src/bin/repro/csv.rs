//! CSV serializers for the experiment results — written next to the text
//! tables when `repro --csv` is used, so figures can be re-plotted with
//! any external tool.

use banscore::scenario::evasion::EvasionResult;
use banscore::scenario::fault_matrix::FaultMatrixResult;
use banscore::scenario::fig6::Fig6Point;
use banscore::scenario::fig8::Fig8Result;
use banscore::scenario::table3::Table3Row;
use btc_attack::meter::CostRow;
use btc_detect::latency::LatencyRow;

/// Table II rows.
pub fn table2(rows: &[CostRow]) -> String {
    let mut out = String::from("message,attacker_clocks,victim_clocks,ratio\n");
    for r in rows {
        out.push_str(&format!(
            "{},{:.2},{:.2},{:.4}\n",
            r.command, r.attacker_clocks, r.victim_clocks, r.ratio
        ));
    }
    out
}

/// Figure 6 points.
pub fn fig6(points: &[Fig6Point]) -> String {
    let mut out = String::from("attack,connections,msgs_per_sec,mbits_per_sec,mining_rate\n");
    for p in points {
        out.push_str(&format!(
            "{},{},{:.2},{:.3},{:.1}\n",
            p.attack.label(),
            p.connections,
            p.msgs_per_sec,
            p.mbits_per_sec,
            p.mining_rate
        ));
    }
    out
}

/// Table III rows.
pub fn table3(rows: &[Table3Row]) -> String {
    let mut out = String::from(
        "layer,rate,achieved_rate,attacker_cpu_pct,attacker_mem_mb,bandwidth_kbits,mining_rate\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{:.0},{:.1},{:.3},{:.2},{:.2},{:.1}\n",
            r.layer,
            r.rate,
            r.achieved_rate,
            r.attacker_cpu_pct,
            r.attacker_mem_mb,
            r.bandwidth_kbits,
            r.mining_rate
        ));
    }
    out
}

/// The Figure-8 ban-score staircase.
pub fn fig8_staircase(r: &Fig8Result) -> String {
    let mut out = String::from("seconds,score\n");
    for (t, s) in &r.staircase {
        out.push_str(&format!("{t:.6},{s}\n"));
    }
    out
}

/// Figure 11 latencies.
pub fn fig11(rows: &[LatencyRow]) -> String {
    let mut out = String::from("method,train_ns,test_ns_per_window\n");
    for r in rows {
        out.push_str(&format!("{},{:.0},{:.1}\n", r.name, r.train_ns, r.test_ns));
    }
    out
}

/// The detector-robustness fault matrix.
pub fn fault_matrix(r: &FaultMatrixResult) -> String {
    use btc_netsim::time::MILLIS;
    let mut out = String::from(
        "loss,jitter_ms,churn_fpm,false_positive,normal_c,normal_rho,\
         bmdos_detected,bmdos_latency_s,bmdos_n,\
         defam_detected,defam_latency_s,defam_c,dropped,retransmits\n",
    );
    for p in &r.points {
        let normal = p.case("normal");
        let dos = p.case("bm-dos");
        let def = p.case("defamation");
        let dropped: u64 = p.cases.iter().map(|c| c.fault_stats.total_dropped()).sum();
        let rtx: u64 = p.cases.iter().map(|c| c.retransmits).sum();
        out.push_str(&format!(
            "{:.3},{},{},{},{:.3},{:.4},{},{:.0},{:.1},{},{:.0},{:.3},{},{}\n",
            p.point.loss,
            p.point.jitter / MILLIS,
            p.point.churn_fpm,
            u8::from(p.false_positive()),
            normal.detection.c,
            normal.detection.rho,
            u8::from(dos.detection.anomalous),
            dos.latency_s,
            dos.detection.n,
            u8::from(def.detection.anomalous),
            def.latency_s,
            def.detection.c,
            dropped,
            rtx,
        ));
    }
    out
}

/// The streaming-service study: one row per (engine, shard count,
/// case). `digest` is deterministic; the throughput/latency columns
/// are wall-clock and vary run to run.
pub fn serve(r: &banscore::scenario::serve::ServeResult) -> String {
    let mut out = String::from(
        "engine,shards,case,events,verdicts,anomalous,msgs_per_sec,p99_decision_ns,digest\n",
    );
    for c in &r.cases {
        for run in &c.runs {
            out.push_str(&format!(
                "streaming,{},{},{},{},{},{:.0},{},{:016x}\n",
                run.shards,
                c.name,
                c.events,
                c.verdicts,
                c.anomalous,
                run.bench.msgs_per_sec,
                run.bench.p99_decision_ns,
                run.digest
            ));
        }
        out.push_str(&format!(
            "batch,1,{},{},{},{},{:.0},{},{:016x}\n",
            c.name,
            c.events,
            c.verdicts,
            c.anomalous,
            c.batch_msgs_per_sec,
            c.batch_ns_per_window,
            c.batch_digest
        ));
    }
    out
}

/// The swarm scale sweep: one row per (case, size, worker count).
/// `digest` and the counters are deterministic; `wall_secs` and
/// `speedup` are wall-clock and vary run to run.
pub fn swarm(r: &crate::swarm::SwarmBenchResult) -> String {
    let mut out = String::from(
        "case,hosts,regions,workers,digest,delivered,target_msgs,bans,dropped,\
         strikes,flood_msgs,wall_secs,speedup\n",
    );
    for p in &r.points {
        for run in &p.runs {
            let o = &run.outcome;
            out.push_str(&format!(
                "{},{},{},{},{:016x},{},{},{},{},{},{},{:.3},{:.2}\n",
                p.case,
                o.hosts,
                r.regions,
                run.workers,
                o.digest,
                o.delivered,
                o.target_msgs,
                o.target_bans,
                o.dropped,
                o.strikes,
                o.flood_msgs,
                run.wall_secs,
                p.speedup(run),
            ));
        }
    }
    out
}

/// The stock vs trust-tier reputation sweep: one row per (case,
/// policy), then one `swarm` row. Every column is simulation-derived
/// and therefore byte-identical for any `--jobs` count.
pub fn reputation(r: &banscore::scenario::reputation::ReputationResult) -> String {
    let mut out = String::from(
        "case,policy,bans,graylists,graylist_dropped,tier_changes,\
         innocents_excluded,recovery_s,detected,latency_s,target_msgs,outbound_at_end\n",
    );
    for row in &r.rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{:.0},{},{:.0},{},{}\n",
            row.case,
            row.policy,
            row.bans,
            row.graylists,
            row.graylist_dropped,
            row.tier_changes,
            row.innocents_excluded,
            row.recovery_s,
            u8::from(row.detected),
            row.latency_s,
            row.target_msgs,
            row.outbound_at_end,
        ));
    }
    let s = &r.swarm;
    out.push_str(&format!(
        "swarm,trust-tiers,{},{},{},0,0,NaN,0,NaN,{},{}\n",
        s.bans, s.graylists, s.graylist_dropped, s.target_msgs, s.hosts
    ));
    out.push_str(&format!("# swarm_digest,{:016x}\n", s.digest));
    out
}

/// The evasion sweep.
pub fn evasion(r: &EvasionResult) -> String {
    let mut out = String::from("rate_per_min,sent,detected,mining_rate,damage\n");
    for p in &r.points {
        out.push_str(&format!(
            "{:.0},{},{},{:.1},{:.4}\n",
            p.rate_per_min, p.sent, p.detected, p.mining_rate, p.damage
        ));
    }
    out
}
