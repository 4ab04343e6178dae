//! Per-layer attribution of a traced phase.
//!
//! Every timed op runs inside a `bench.op` span (in-process replays inside
//! `bench.replay`). Inside them the trace holds three kinds of spans: the
//! ones the library records itself (`eval.*`, `codec.*`, `chunked.*`,
//! `deflate.*`, `lossless.*`, `archive.*`), the server subtrees the client
//! stitches in for traced requests (`srv.*` under `client.req.*`), and the
//! benchmark's own `bench.<layer>.<call>` spans around calls into a layer's
//! public API that record nothing themselves. Each span's self time (its
//! wall minus its direct children) is charged to one stage below; the op
//! spans' own self time is harness time, the part no layer accounts for.

use cc_obs::SpanNode;
use std::collections::BTreeMap;

/// Stage names, in report order. Each becomes a `<stage>.self_pct`
/// per-layer metric: its self time as a share of all traced op wall time.
pub const STAGES: &[&str] = &[
    "model.member_synth",
    "model.build",
    "eval.context",
    "eval.sample",
    "eval.member_recon",
    "eval.verdict",
    "eval.tune",
    "pvt.rmsz",
    "pvt.enmax",
    "pvt.bias",
    "codecs.encode",
    "codecs.decode",
    "lossless.deflate.encode",
    "lossless.deflate.decode",
    "lossless.other",
    "archive.add_variable",
    "archive.finish",
    "archive.open",
    "archive.fetch",
    "srv.decode",
    "srv.queue",
    "srv.compute",
    "srv.chunk.encode",
    "srv.stream.emit",
    "srv.reply",
    "client.wire",
    "other",
];

/// Span names that delimit one timed op.
pub const OP_SPAN: &str = "bench.op";
pub const REPLAY_SPAN: &str = "bench.replay";

/// The stage a span's self time is charged to; `None` for harness spans.
pub fn stage_of(name: &str) -> Option<&'static str> {
    let stage = match name {
        "eval.member_synth" => "model.member_synth",
        "eval.context" => "eval.context",
        "eval.sample" => "eval.sample",
        "eval.member_recon" => "eval.member_recon",
        "eval.verdict" => "eval.verdict",
        "eval.test.rmsz" => "pvt.rmsz",
        "eval.test.enmax" => "pvt.enmax",
        "eval.test.bias" => "pvt.bias",
        "chunked.encode" | "bench.codecs.compress_chunked" => "codecs.encode",
        "chunked.decode" | "bench.codecs.decompress_chunked" => "codecs.decode",
        "deflate.encode" => "lossless.deflate.encode",
        "deflate.decode" => "lossless.deflate.decode",
        "archive.add_variable" | "bench.archive.add_variable" => "archive.add_variable",
        "bench.archive.finish" => "archive.finish",
        "archive.open" | "bench.archive.open" | "bench.archive.file_open" => "archive.open",
        "archive.fetch_slice"
        | "archive.fetch_frame"
        | "archive.decode_variable"
        | "bench.archive.fetch_slice" => "archive.fetch",
        "srv.decode" => "srv.decode",
        "srv.queue" => "srv.queue",
        "srv.compute" => "srv.compute",
        "srv.chunk.encode" => "srv.chunk.encode",
        "srv.stream.emit" => "srv.stream.emit",
        "srv.request" | "srv.reply.enqueue" => "srv.reply",
        n if n.starts_with("codec.") && n.ends_with(".encode") => "codecs.encode",
        n if n.starts_with("codec.") && n.ends_with(".decode") => "codecs.decode",
        n if n.starts_with("lossless.") => "lossless.other",
        n if n.starts_with("bench.model.") => "model.build",
        n if n.starts_with("bench.eval.") => "eval.tune",
        n if n.starts_with("client.req.") || n.starts_with("bench.client.") => "client.wire",
        n if n.starts_with("bench.") => return None,
        _ => "other",
    };
    Some(stage)
}

/// Self time per stage, summed over every op span of a traced phase.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Op spans found.
    pub ops: usize,
    /// Summed wall of the op spans, ns.
    pub op_ns: u64,
    /// Self time per stage, ns.
    pub stage_ns: BTreeMap<&'static str, u64>,
    /// Self time of harness spans inside ops, ns.
    pub harness_ns: u64,
}

impl Attribution {
    /// Walk a span forest, attributing everything inside op spans.
    pub fn of(roots: &[SpanNode]) -> Attribution {
        let mut a = Attribution::default();
        for r in roots {
            a.find_ops(r);
        }
        a
    }

    fn find_ops(&mut self, node: &SpanNode) {
        if node.name == OP_SPAN || node.name == REPLAY_SPAN {
            self.ops += 1;
            self.op_ns += node.dur_ns;
            self.charge(node);
        } else {
            for c in &node.children {
                self.find_ops(c);
            }
        }
    }

    fn charge(&mut self, node: &SpanNode) {
        match stage_of(node.name) {
            Some(stage) => *self.stage_ns.entry(stage).or_insert(0) += node.self_ns(),
            None => self.harness_ns += node.self_ns(),
        }
        for c in &node.children {
            self.charge(c);
        }
    }

    /// A stage's self time as a percentage of the op wall. Stages that
    /// overlap (the tune sweep builds the next context on a helper
    /// thread; served ops overlap across two connections) can sum past 100.
    pub fn share_pct(&self, stage: &str) -> f64 {
        let ns = self.stage_ns.get(stage).copied().unwrap_or(0);
        100.0 * ns as f64 / self.op_ns.max(1) as f64
    }

    /// Share of the op wall charged to some layer rather than the harness.
    pub fn coverage_pct(&self) -> f64 {
        100.0 * (1.0 - self.harness_ns as f64 / self.op_ns.max(1) as f64)
    }
}

/// The per-span-name self-time table of a traced phase, largest first.
pub fn self_time_table(roots: &[SpanNode], rows: usize) -> String {
    let report = cc_obs::trace::TraceReport {
        spans: roots.to_vec(),
        metrics: Default::default(),
    };
    let mut summary = report.summary();
    summary.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    let mut out = format!(
        "{:<34} {:>8} {:>12} {:>12}\n",
        "span", "calls", "self ms", "wall ms"
    );
    for s in summary.iter().take(rows) {
        out.push_str(&format!(
            "{:<34} {:>8} {:>12.3} {:>12.3}\n",
            s.name,
            s.calls,
            s.self_ns as f64 / 1e6,
            s.wall_ns as f64 / 1e6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &'static str, start: u64, dur: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name,
            start_ns: start,
            dur_ns: dur,
            children,
        }
    }

    #[test]
    fn self_time_is_charged_to_stages_and_harness() {
        let op = node(
            OP_SPAN,
            0,
            100,
            vec![node(
                "client.req.fetch-slice",
                5,
                90,
                vec![node(
                    "srv.request",
                    10,
                    70,
                    vec![
                        node("srv.queue", 10, 20, vec![]),
                        node("srv.compute", 30, 40, vec![]),
                    ],
                )],
            )],
        );
        // Time outside op spans (the generator sleeping) is not charged.
        let root = node("bench.fetch", 0, 1_000, vec![op]);
        let a = Attribution::of(&[root]);
        assert_eq!(a.ops, 1);
        assert_eq!(a.op_ns, 100);
        assert_eq!(a.harness_ns, 10);
        assert_eq!(a.stage_ns["client.wire"], 20);
        assert_eq!(a.stage_ns["srv.reply"], 10);
        assert_eq!(a.stage_ns["srv.queue"], 20);
        assert_eq!(a.stage_ns["srv.compute"], 40);
        assert!((a.coverage_pct() - 90.0).abs() < 1e-9);
        assert!((a.share_pct("srv.compute") - 40.0).abs() < 1e-9);
        assert_eq!(a.share_pct("pvt.bias"), 0.0);
    }

    #[test]
    fn every_stage_is_reachable_and_names_are_metric_safe() {
        for name in [
            "eval.member_synth",
            "codec.SZ-rel-1e-4.encode",
            "codec.GRIB2.decode",
            "lossless.encode_f32",
            "bench.model.new",
            "bench.eval.tune_variable",
            "bench.client.archive_put",
            "bench.archive.finish",
            "something.new",
        ] {
            let stage = stage_of(name).expect("layer span");
            assert!(STAGES.contains(&stage), "{name} -> {stage} not reported");
        }
        assert_eq!(stage_of(OP_SPAN), None);
        assert_eq!(stage_of("bench.check"), None);
        for s in STAGES {
            assert!(s
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_'));
        }
    }
}
