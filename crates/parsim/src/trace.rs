//! Structured event tracing for SPMD runs.
//!
//! Every [`Comm`](crate::Comm) records a typed event for each virtual-clock
//! charge it makes: local computation, sends (with wire size and arrival
//! stamp), receives (with the wait the receiver paid), collective
//! enter/exit markers, user-defined phase spans, and blocked clock-rewind
//! attempts. After [`spmd`](crate::spmd) returns, the per-rank event
//! streams are gathered into a [`TraceLog`], which supports:
//!
//! * **aggregation** ([`TraceLog::summary`]): per-rank wait / compute /
//!   wire / injected split (which reconstructs each rank's elapsed virtual
//!   time exactly: `compute + wire + wait + injected == elapsed`) and
//!   message/word counters per collective kind;
//! * **export**: Chrome-trace JSON ([`TraceLog::chrome_json`], loadable in
//!   `chrome://tracing` or Perfetto) and a plain-text timeline
//!   ([`TraceLog::text_timeline`]);
//! * **protocol checking** ([`check_protocol`]): replaying the log to flag
//!   SPMD discipline violations — mismatched collective sequences across
//!   ranks, tag-order inconsistencies on a channel, and clock-rewind
//!   attempts — before they surface as opaque cross-rank panics.
//!
//! Virtual timestamps are deterministic, so two runs of the same program
//! produce byte-identical exports.

use std::collections::HashMap;
use std::fmt;

use crate::chaos::FaultKind;
use crate::comm::Tag;
use crate::executor::RankResult;

/// The collective operations [`Comm`](crate::Comm) provides, for sequence
/// checking and per-collective counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    Barrier,
    Bcast,
    Gather,
    Scatter,
    Allgather,
    Allreduce,
    Alltoallv,
    Reduce,
    Scan,
}

/// All kinds, in counter-array order.
pub const COLLECTIVE_KINDS: [CollectiveKind; 9] = [
    CollectiveKind::Barrier,
    CollectiveKind::Bcast,
    CollectiveKind::Gather,
    CollectiveKind::Scatter,
    CollectiveKind::Allgather,
    CollectiveKind::Allreduce,
    CollectiveKind::Alltoallv,
    CollectiveKind::Reduce,
    CollectiveKind::Scan,
];

impl CollectiveKind {
    /// Stable lowercase name (used in exports).
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Bcast => "bcast",
            CollectiveKind::Gather => "gather",
            CollectiveKind::Scatter => "scatter",
            CollectiveKind::Allgather => "allgather",
            CollectiveKind::Allreduce => "allreduce",
            CollectiveKind::Alltoallv => "alltoallv",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::Scan => "scan",
        }
    }

    fn index(self) -> usize {
        COLLECTIVE_KINDS.iter().position(|&k| k == self).unwrap()
    }
}

/// One typed event on one rank's virtual timeline. All times are virtual
/// seconds on that rank's clock.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Local work charged via `compute` or `advance`.
    Compute { start: f64, end: f64 },
    /// A send: the local clock ran `start..end` (the startup charge); the
    /// payload of `words` words arrives at `peer` at `arrival`.
    Send {
        start: f64,
        end: f64,
        peer: usize,
        tag: Tag,
        words: u64,
        arrival: f64,
    },
    /// A receive: posted at `posted`, satisfied at `completed` (the clock
    /// after advancing to the arrival stamp). `wait = completed - posted`
    /// is the time the receiver idled for in-flight data.
    Recv {
        posted: f64,
        completed: f64,
        peer: usize,
        tag: Tag,
        words: u64,
        wait: f64,
    },
    /// Entry into a collective. `depth` is the nesting level (allgather
    /// calls gather + bcast, so those appear at depth 1).
    CollectiveEnter {
        kind: CollectiveKind,
        depth: u32,
        start: f64,
    },
    /// Exit from a collective (matches the most recent unmatched enter).
    CollectiveExit {
        kind: CollectiveKind,
        depth: u32,
        end: f64,
    },
    /// Begin of a user-defined phase span (see `Comm::phase`).
    PhaseBegin { name: String, start: f64 },
    /// End of a user-defined phase span.
    PhaseEnd { name: String, end: f64 },
    /// A negative-duration clock charge was requested and blocked (the
    /// clock saturated instead of rewinding). Always a protocol violation.
    RewindBlocked { at: f64, dt: f64 },
    /// Idle time spent at a step boundary of a [`crate::Session`]: the host
    /// aligned this rank's clock to the slowest rank before the next step.
    /// Accounted as wait (it is synchronization idle, like a recv wait).
    Sync { start: f64, end: f64 },
    /// An injected fault span (see [`crate::FaultPlan`]): a transient stall
    /// charges `end - start` seconds; instantaneous faults (a slowdown or
    /// delay spike taking effect) are zero-length markers. Accounted in
    /// [`RankSummary::injected`].
    Fault {
        kind: FaultKind,
        start: f64,
        end: f64,
    },
}

impl TraceEvent {
    /// The event's position on the timeline (its start time).
    pub fn time(&self) -> f64 {
        match *self {
            TraceEvent::Compute { start, .. } => start,
            TraceEvent::Send { start, .. } => start,
            TraceEvent::Recv { posted, .. } => posted,
            TraceEvent::CollectiveEnter { start, .. } => start,
            TraceEvent::CollectiveExit { end, .. } => end,
            TraceEvent::PhaseBegin { start, .. } => start,
            TraceEvent::PhaseEnd { end, .. } => end,
            TraceEvent::RewindBlocked { at, .. } => at,
            TraceEvent::Sync { start, .. } => start,
            TraceEvent::Fault { start, .. } => start,
        }
    }

    /// When the event's local clock effect ends.
    pub fn end_time(&self) -> f64 {
        match *self {
            TraceEvent::Compute { end, .. } => end,
            TraceEvent::Send { end, .. } => end,
            TraceEvent::Recv { completed, .. } => completed,
            TraceEvent::CollectiveEnter { start, .. } => start,
            TraceEvent::CollectiveExit { end, .. } => end,
            TraceEvent::PhaseBegin { start, .. } => start,
            TraceEvent::PhaseEnd { end, .. } => end,
            TraceEvent::RewindBlocked { at, .. } => at,
            TraceEvent::Sync { end, .. } => end,
            TraceEvent::Fault { end, .. } => end,
        }
    }
}

/// The gathered event streams of one SPMD run, indexed by rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// `events[r]` is rank `r`'s stream, in program (= virtual-time) order.
    pub events: Vec<Vec<TraceEvent>>,
}

/// Per-collective counters on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CollectiveStats {
    /// Top-level invocations (nested sub-collectives are not counted).
    pub calls: u64,
    /// Point-to-point messages sent inside this collective.
    pub msgs: u64,
    /// Words sent inside this collective.
    pub words: u64,
    /// Virtual seconds spent inside top-level spans of this collective.
    pub seconds: f64,
}

/// Aggregate virtual-time split of one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankSummary {
    pub rank: usize,
    /// Seconds charged via `compute` / `advance`.
    pub compute: f64,
    /// Seconds of send startup charges (the sender's share of wire time).
    pub wire: f64,
    /// Seconds idled in receives waiting for in-flight data.
    pub wait: f64,
    /// Seconds charged by injected faults (chaos stalls).
    pub injected: f64,
    /// Messages / words this rank sent.
    pub msgs_sent: u64,
    pub words_sent: u64,
    /// Blocked clock-rewind attempts.
    pub rewinds_blocked: u64,
    /// Counters per collective kind, indexed like [`COLLECTIVE_KINDS`].
    pub collectives: [CollectiveStats; COLLECTIVE_KINDS.len()],
}

impl RankSummary {
    /// Counters for one collective kind.
    pub fn collective(&self, kind: CollectiveKind) -> &CollectiveStats {
        &self.collectives[kind.index()]
    }

    /// The rank's total accounted virtual time. Equal (to rounding) to the
    /// rank's final clock: every clock charge generates exactly one event,
    /// so `compute + wire + wait + injected == elapsed`.
    pub fn total(&self) -> f64 {
        self.compute + self.wire + self.wait + self.injected
    }
}

/// Aggregates of a whole [`TraceLog`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    pub ranks: Vec<RankSummary>,
}

impl TraceSummary {
    /// Sum of a per-rank quantity.
    fn sum(&self, f: impl Fn(&RankSummary) -> f64) -> f64 {
        self.ranks.iter().map(f).sum()
    }

    /// Total wait seconds over all ranks.
    pub fn total_wait(&self) -> f64 {
        self.sum(|r| r.wait)
    }

    /// Total compute seconds over all ranks.
    pub fn total_compute(&self) -> f64 {
        self.sum(|r| r.compute)
    }

    /// Total wire (send-startup) seconds over all ranks.
    pub fn total_wire(&self) -> f64 {
        self.sum(|r| r.wire)
    }

    /// Total messages sent over all ranks.
    pub fn total_msgs(&self) -> u64 {
        self.ranks.iter().map(|r| r.msgs_sent).sum()
    }

    /// Total words sent over all ranks.
    pub fn total_words(&self) -> u64 {
        self.ranks.iter().map(|r| r.words_sent).sum()
    }
}

impl TraceLog {
    /// Gather the per-rank event streams out of `spmd` results.
    pub fn from_results<T>(results: &[RankResult<T>]) -> Self {
        TraceLog {
            events: results.iter().map(|r| r.events.clone()).collect(),
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.events.len()
    }

    /// Compute the per-rank aggregate metrics.
    pub fn summary(&self) -> TraceSummary {
        let mut ranks = Vec::with_capacity(self.events.len());
        for (rank, stream) in self.events.iter().enumerate() {
            let mut s = RankSummary {
                rank,
                ..RankSummary::default()
            };
            // Stack of enclosing collective kinds; index 0 = top level.
            let mut coll_stack: Vec<CollectiveKind> = Vec::new();
            for ev in stream {
                match *ev {
                    TraceEvent::Compute { start, end } => s.compute += end - start,
                    TraceEvent::Send {
                        start, end, words, ..
                    } => {
                        s.wire += end - start;
                        s.msgs_sent += 1;
                        s.words_sent += words;
                        if let Some(&top) = coll_stack.first() {
                            let c = &mut s.collectives[top.index()];
                            c.msgs += 1;
                            c.words += words;
                        }
                    }
                    TraceEvent::Recv { wait, .. } => s.wait += wait,
                    TraceEvent::CollectiveEnter { kind, start, .. } => {
                        if coll_stack.is_empty() {
                            let c = &mut s.collectives[kind.index()];
                            c.calls += 1;
                            c.seconds -= start; // paired with += end below
                        }
                        coll_stack.push(kind);
                    }
                    TraceEvent::CollectiveExit { kind, end, .. } => {
                        let popped = coll_stack.pop();
                        debug_assert_eq!(popped, Some(kind), "unbalanced collective markers");
                        if coll_stack.is_empty() {
                            s.collectives[kind.index()].seconds += end;
                        }
                    }
                    TraceEvent::PhaseBegin { .. } | TraceEvent::PhaseEnd { .. } => {}
                    TraceEvent::RewindBlocked { .. } => s.rewinds_blocked += 1,
                    TraceEvent::Sync { start, end } => s.wait += end - start,
                    TraceEvent::Fault { start, end, .. } => s.injected += end - start,
                }
            }
            ranks.push(s);
        }
        TraceSummary { ranks }
    }

    /// Serialize as Chrome-trace JSON (the `chrome://tracing` / Perfetto
    /// "JSON object format"). One track (`tid`) per rank; timestamps in
    /// microseconds of virtual time. Deterministic: identical logs
    /// serialize to identical bytes.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, line: String| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(&line);
        };
        for rank in 0..self.events.len() {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"rank {rank}\"}}}}"
                ),
            );
        }
        for (rank, stream) in self.events.iter().enumerate() {
            // Stacks matching begin/end markers to complete ("X") events.
            let mut phase_stack: Vec<(&str, f64)> = Vec::new();
            let mut coll_stack: Vec<(CollectiveKind, f64)> = Vec::new();
            for ev in stream {
                match ev {
                    TraceEvent::Compute { start, end } => push(
                        &mut out,
                        &mut first,
                        chrome_span(rank, "compute", "compute", *start, *end, ""),
                    ),
                    TraceEvent::Send {
                        start,
                        end,
                        peer,
                        tag,
                        words,
                        arrival,
                    } => push(
                        &mut out,
                        &mut first,
                        chrome_span(
                            rank,
                            &format!("send\\u2192{peer}"),
                            "comm",
                            *start,
                            *end,
                            &format!(
                                ",\"args\":{{\"peer\":{peer},\"tag\":{tag},\"words\":{words},\
                                 \"arrival_us\":{}}}",
                                us(*arrival)
                            ),
                        ),
                    ),
                    TraceEvent::Recv {
                        posted,
                        completed,
                        peer,
                        tag,
                        words,
                        wait,
                    } => {
                        if *wait > 0.0 {
                            push(
                                &mut out,
                                &mut first,
                                chrome_span(
                                    rank,
                                    &format!("wait\\u2190{peer}"),
                                    "wait",
                                    *posted,
                                    *completed,
                                    &format!(
                                        ",\"args\":{{\"peer\":{peer},\"tag\":{tag},\
                                         \"words\":{words}}}"
                                    ),
                                ),
                            );
                        }
                    }
                    TraceEvent::CollectiveEnter { kind, start, .. } => {
                        coll_stack.push((*kind, *start));
                    }
                    TraceEvent::CollectiveExit { kind, end, .. } => {
                        if let Some((k, start)) = coll_stack.pop() {
                            debug_assert_eq!(k, *kind);
                            push(
                                &mut out,
                                &mut first,
                                chrome_span(rank, kind.name(), "collective", start, *end, ""),
                            );
                        }
                    }
                    TraceEvent::PhaseBegin { name, start } => phase_stack.push((name, *start)),
                    TraceEvent::PhaseEnd { name, end } => {
                        if let Some((n, start)) = phase_stack.pop() {
                            debug_assert_eq!(n, name);
                            push(
                                &mut out,
                                &mut first,
                                chrome_span(rank, n, "phase", start, *end, ""),
                            );
                        }
                    }
                    TraceEvent::RewindBlocked { at, dt } => push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"i\",\"pid\":0,\"tid\":{rank},\"ts\":{},\"s\":\"t\",\
                             \"name\":\"clock-rewind-blocked\",\"cat\":\"violation\",\
                             \"args\":{{\"dt_us\":{}}}}}",
                            us(*at),
                            us(*dt)
                        ),
                    ),
                    TraceEvent::Sync { start, end } => push(
                        &mut out,
                        &mut first,
                        chrome_span(rank, "sync", "wait", *start, *end, ""),
                    ),
                    TraceEvent::Fault { kind, start, end } => push(
                        &mut out,
                        &mut first,
                        chrome_span(
                            rank,
                            &format!("fault:{}", kind.name()),
                            "fault",
                            *start,
                            *end,
                            "",
                        ),
                    ),
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Plain-text per-rank timeline (chronological within each rank).
    pub fn text_timeline(&self) -> String {
        let mut out = String::new();
        for (rank, stream) in self.events.iter().enumerate() {
            out.push_str(&format!("== rank {rank} ==\n"));
            for ev in stream {
                let line = match ev {
                    TraceEvent::Compute { start, end } => {
                        format!(
                            "{:>14}  compute {:.3}us",
                            span(*start, *end),
                            us_f(*end - *start)
                        )
                    }
                    TraceEvent::Send {
                        start,
                        end,
                        peer,
                        tag,
                        words,
                        arrival,
                    } => format!(
                        "{:>14}  send -> {peer} tag={tag} words={words} arrives@{}",
                        span(*start, *end),
                        ts(*arrival)
                    ),
                    TraceEvent::Recv {
                        posted,
                        completed,
                        peer,
                        tag,
                        words,
                        wait,
                    } => format!(
                        "{:>14}  recv <- {peer} tag={tag} words={words} wait={:.3}us",
                        span(*posted, *completed),
                        us_f(*wait)
                    ),
                    TraceEvent::CollectiveEnter { kind, depth, start } => format!(
                        "{:>14}  {}enter {}",
                        ts(*start),
                        "  ".repeat(*depth as usize),
                        kind.name()
                    ),
                    TraceEvent::CollectiveExit { kind, depth, end } => format!(
                        "{:>14}  {}exit  {}",
                        ts(*end),
                        "  ".repeat(*depth as usize),
                        kind.name()
                    ),
                    TraceEvent::PhaseBegin { name, start } => {
                        format!("{:>14}  === phase {name} begin ===", ts(*start))
                    }
                    TraceEvent::PhaseEnd { name, end } => {
                        format!("{:>14}  === phase {name} end ===", ts(*end))
                    }
                    TraceEvent::RewindBlocked { at, dt } => format!(
                        "{:>14}  !! clock rewind blocked (dt={:.3}us)",
                        ts(*at),
                        us_f(*dt)
                    ),
                    TraceEvent::Sync { start, end } => format!(
                        "{:>14}  sync (idle {:.3}us)",
                        span(*start, *end),
                        us_f(*end - *start)
                    ),
                    TraceEvent::Fault { kind, start, end } => format!(
                        "{:>14}  !! fault {} (injected {:.3}us)",
                        span(*start, *end),
                        kind.name(),
                        us_f(*end - *start)
                    ),
                };
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

/// Microseconds string with fixed precision (deterministic formatting).
fn us(seconds: f64) -> String {
    format!("{:.6}", seconds * 1e6)
}

fn us_f(seconds: f64) -> f64 {
    seconds * 1e6
}

fn ts(seconds: f64) -> String {
    format!("{:.3}us", seconds * 1e6)
}

fn span(start: f64, end: f64) -> String {
    format!("{:.3}..{:.3}us", start * 1e6, end * 1e6)
}

fn chrome_span(rank: usize, name: &str, cat: &str, start: f64, end: f64, args: &str) -> String {
    format!(
        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{rank},\"ts\":{},\"dur\":{},\
         \"name\":\"{name}\",\"cat\":\"{cat}\"{args}}}",
        us(start),
        us(end - start)
    )
}

// ---------------------------------------------------------------------------
// Protocol checker
// ---------------------------------------------------------------------------

/// One SPMD discipline violation found by [`check_protocol`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolViolation {
    /// Rank `rank`'s `index`-th collective call differs from rank 0's
    /// (`None` = that rank's sequence ended early).
    CollectiveSequenceMismatch {
        rank: usize,
        index: usize,
        reference: Option<CollectiveKind>,
        got: Option<CollectiveKind>,
    },
    /// The `index`-th message on the `src → dst` channel was sent with one
    /// tag but received expecting another (`None` = one side stopped
    /// early: unreceived sends or unmatched receives).
    TagOrderMismatch {
        src: usize,
        dst: usize,
        index: usize,
        sent: Option<Tag>,
        received: Option<Tag>,
    },
    /// A rank attempted to rewind its virtual clock (negative charge).
    ClockRewind { rank: usize, at: f64, dt: f64 },
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolViolation::CollectiveSequenceMismatch {
                rank,
                index,
                reference,
                got,
            } => write!(
                f,
                "collective sequence mismatch: rank {rank} call #{index} is {}, rank 0 has {}",
                got.map_or("<none>", |k| k.name()),
                reference.map_or("<none>", |k| k.name()),
            ),
            ProtocolViolation::TagOrderMismatch {
                src,
                dst,
                index,
                sent,
                received,
            } => write!(
                f,
                "tag order mismatch on channel {src} -> {dst}, message #{index}: \
                 sent tag {sent:?}, received expecting tag {received:?}",
            ),
            ProtocolViolation::ClockRewind { rank, at, dt } => write!(
                f,
                "clock rewind attempt on rank {rank} at t={:.3}us (dt={:.3}us)",
                at * 1e6,
                dt * 1e6
            ),
        }
    }
}

/// Replay a [`TraceLog`] and report every SPMD discipline violation:
///
/// 1. **Collective sequences**: every rank must issue the same collectives
///    in the same order (rank 0 is the reference).
/// 2. **Tag order**: per `src → dst` channel, the sender's tag sequence
///    must equal the receiver's expected-tag sequence (channels are FIFO).
/// 3. **Clock rewinds**: any blocked negative clock charge.
pub fn check_protocol(log: &TraceLog) -> Vec<ProtocolViolation> {
    let mut out = Vec::new();

    // 1. Collective call sequences (all nesting levels, in order).
    let seqs: Vec<Vec<CollectiveKind>> = log
        .events
        .iter()
        .map(|stream| {
            stream
                .iter()
                .filter_map(|ev| match ev {
                    TraceEvent::CollectiveEnter { kind, .. } => Some(*kind),
                    _ => None,
                })
                .collect()
        })
        .collect();
    if let Some(reference) = seqs.first() {
        for (rank, seq) in seqs.iter().enumerate().skip(1) {
            let n = reference.len().max(seq.len());
            for i in 0..n {
                let a = reference.get(i).copied();
                let b = seq.get(i).copied();
                if a != b {
                    out.push(ProtocolViolation::CollectiveSequenceMismatch {
                        rank,
                        index: i,
                        reference: a,
                        got: b,
                    });
                    break; // one desynchronization point per rank
                }
            }
        }
    }

    // 2. Tag order per channel. One pass over each rank's stream builds the
    // per-(src, dst) tag sequences for both sides; only channels that carried
    // traffic are materialized, so the cost is O(events), not O(P²) channel
    // scans over the full streams.
    let mut sent_tags: HashMap<(usize, usize), Vec<Tag>> = HashMap::new();
    let mut recd_tags: HashMap<(usize, usize), Vec<Tag>> = HashMap::new();
    for (rank, stream) in log.events.iter().enumerate() {
        for ev in stream {
            match ev {
                TraceEvent::Send { peer, tag, .. } => {
                    sent_tags.entry((rank, *peer)).or_default().push(*tag);
                }
                TraceEvent::Recv { peer, tag, .. } => {
                    recd_tags.entry((*peer, rank)).or_default().push(*tag);
                }
                _ => {}
            }
        }
    }
    let mut channels: Vec<(usize, usize)> =
        sent_tags.keys().chain(recd_tags.keys()).copied().collect();
    channels.sort_unstable();
    channels.dedup();
    const NO_TAGS: &[Tag] = &[];
    for (src, dst) in channels {
        let sent = sent_tags.get(&(src, dst)).map_or(NO_TAGS, |v| v);
        let recd = recd_tags.get(&(src, dst)).map_or(NO_TAGS, |v| v);
        let n = sent.len().max(recd.len());
        for i in 0..n {
            let a = sent.get(i).copied();
            let b = recd.get(i).copied();
            if a != b {
                out.push(ProtocolViolation::TagOrderMismatch {
                    src,
                    dst,
                    index: i,
                    sent: a,
                    received: b,
                });
                break;
            }
        }
    }

    // 3. Clock rewinds.
    for (rank, stream) in log.events.iter().enumerate() {
        for ev in stream {
            if let TraceEvent::RewindBlocked { at, dt } = ev {
                out.push(ProtocolViolation::ClockRewind {
                    rank,
                    at: *at,
                    dt: *dt,
                });
            }
        }
    }

    out
}

// ---------------------------------------------------------------------------
// Multi-log merging (phase-by-phase export of a whole adaption cycle)
// ---------------------------------------------------------------------------

/// Builds one merged Chrome trace out of several [`TraceLog`]s (each offset
/// on the global timeline) plus synthetic spans for phases that run outside
/// the simulator (modeled costs). Used by the `reproduce -- fig6 --trace`
/// exporter to lay out a whole adaption cycle.
#[derive(Debug, Clone, Default)]
pub struct MergedTrace {
    log: TraceLog,
}

impl MergedTrace {
    /// A merged trace over `nranks` tracks.
    pub fn new(nranks: usize) -> Self {
        MergedTrace {
            log: TraceLog {
                events: vec![Vec::new(); nranks],
            },
        }
    }

    /// Append every event of `log`, shifted by `offset` seconds, wrapped in
    /// a phase span named `phase` covering each rank's local activity. A
    /// stream that already opens with its own `phase`-named span is not
    /// wrapped again.
    pub fn add_log(&mut self, phase: &str, log: &TraceLog, offset: f64) {
        for (rank, stream) in log.events.iter().enumerate() {
            if rank >= self.log.events.len() {
                break;
            }
            let wrapped = matches!(
                stream.first(),
                Some(TraceEvent::PhaseBegin { name, .. }) if name == phase
            );
            let end = stream.iter().map(|e| e.end_time()).fold(0.0, f64::max);
            let dst = &mut self.log.events[rank];
            if !wrapped {
                dst.push(TraceEvent::PhaseBegin {
                    name: phase.to_string(),
                    start: offset,
                });
            }
            for ev in stream {
                dst.push(shift(ev, offset));
            }
            if !wrapped {
                dst.push(TraceEvent::PhaseEnd {
                    name: phase.to_string(),
                    end: offset + end,
                });
            }
        }
    }

    /// Add the same synthetic span on every rank (modeled phases with no
    /// per-rank event detail).
    pub fn add_uniform_span(&mut self, phase: &str, start: f64, end: f64) {
        for stream in &mut self.log.events {
            stream.push(TraceEvent::PhaseBegin {
                name: phase.to_string(),
                start,
            });
            stream.push(TraceEvent::PhaseEnd {
                name: phase.to_string(),
                end,
            });
        }
    }

    /// The merged log (for export or checking).
    pub fn log(&self) -> &TraceLog {
        &self.log
    }
}

fn shift(ev: &TraceEvent, dt: f64) -> TraceEvent {
    let mut out = ev.clone();
    match &mut out {
        TraceEvent::Compute { start, end } => {
            *start += dt;
            *end += dt;
        }
        TraceEvent::Send {
            start,
            end,
            arrival,
            ..
        } => {
            *start += dt;
            *end += dt;
            *arrival += dt;
        }
        TraceEvent::Recv {
            posted, completed, ..
        } => {
            *posted += dt;
            *completed += dt;
        }
        TraceEvent::CollectiveEnter { start, .. } => *start += dt,
        TraceEvent::CollectiveExit { end, .. } => *end += dt,
        TraceEvent::PhaseBegin { start, .. } => *start += dt,
        TraceEvent::PhaseEnd { end, .. } => *end += dt,
        TraceEvent::RewindBlocked { at, .. } => *at += dt,
        TraceEvent::Sync { start, end } | TraceEvent::Fault { start, end, .. } => {
            *start += dt;
            *end += dt;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Happens-before edges & one-pass phase aggregation
// ---------------------------------------------------------------------------

/// One matched send/recv pair: the cross-rank happens-before edge induced by
/// a message. Channels are FIFO per `(src, dst)` pair, so the `i`-th send on
/// a channel pairs with the `i`-th receive on it (the same rule
/// [`check_protocol`] enforces on tag sequences).
#[derive(Debug, Clone, PartialEq)]
pub struct MessageEdge {
    pub src: usize,
    pub dst: usize,
    /// Tag as recorded on the receive side.
    pub tag: Tag,
    pub words: u64,
    /// Index of the `Send` event in `events[src]`.
    pub send_event: usize,
    /// Index of the `Recv` event in `events[dst]`.
    pub recv_event: usize,
    pub send_start: f64,
    pub send_end: f64,
    pub recv_posted: f64,
    pub recv_completed: f64,
    /// Receiver idle time paid on this edge (`Recv::wait`).
    pub wait: f64,
    /// Innermost phase open on the receiver when the receive completed.
    pub phase: Option<String>,
}

/// Per-phase aggregate built in a single pass over a [`TraceLog`]
/// (see [`TraceLog::phase_breakdowns`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseAgg {
    pub name: String,
    /// Seconds charged via `compute` / `advance`, summed over ranks.
    pub compute: f64,
    /// Send-startup seconds, summed over ranks.
    pub wire: f64,
    /// Recv + sync idle seconds, summed over ranks.
    pub wait: f64,
    /// Injected fault seconds, summed over ranks.
    pub injected: f64,
    /// Messages / words sent inside the phase, over all ranks.
    pub msgs: u64,
    pub words: u64,
    /// Earliest `PhaseBegin` across ranks.
    pub start: f64,
    /// Latest `PhaseEnd` across ranks.
    pub end: f64,
}

impl PhaseAgg {
    /// Wall-clock (virtual) extent of the phase.
    pub fn elapsed(&self) -> f64 {
        self.end - self.start
    }

    /// Total accounted seconds over all ranks.
    pub fn total(&self) -> f64 {
        self.compute + self.wire + self.wait + self.injected
    }
}

/// One rank's share of a phase: the accounted-seconds split plus message
/// counters, as attributed by [`TraceLog::phase_rank_breakdowns`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankPhaseSplit {
    /// Compute seconds inside the phase on this rank.
    pub compute: f64,
    /// Send-startup (wire) seconds.
    pub wire: f64,
    /// Recv + sync idle seconds.
    pub wait: f64,
    /// Injected fault seconds.
    pub injected: f64,
    /// Messages / words sent inside the phase by this rank.
    pub msgs: u64,
    pub words: u64,
}

impl RankPhaseSplit {
    /// Total accounted seconds of this rank inside the phase.
    pub fn total(&self) -> f64 {
        self.compute + self.wire + self.wait + self.injected
    }
}

/// Per-(phase, rank) aggregation: the same attribution as
/// [`TraceLog::phase_breakdowns`] (innermost open phase, carry into the
/// last closed phase), but split per rank and extended with the phase's
/// top-level collective counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRankAgg {
    pub name: String,
    /// Earliest `PhaseBegin` across ranks.
    pub start: f64,
    /// Latest `PhaseEnd` across ranks.
    pub end: f64,
    /// One entry per rank (length == `TraceLog::nranks`).
    pub ranks: Vec<RankPhaseSplit>,
    /// Top-level collective stats summed over ranks, indexed by
    /// [`CollectiveKind::index`]. A collective is attributed to the phase
    /// that was current on the rank when it was *entered*.
    pub collectives: [CollectiveStats; COLLECTIVE_KINDS.len()],
}

impl PhaseRankAgg {
    /// Total accounted seconds over all ranks.
    pub fn total(&self) -> f64 {
        self.ranks.iter().map(|r| r.total()).sum()
    }

    /// Stats of one collective kind inside this phase.
    pub fn collective(&self, kind: CollectiveKind) -> &CollectiveStats {
        &self.collectives[kind.index()]
    }
}

impl TraceLog {
    /// Match every `Send` to its `Recv` by FIFO channel order and return
    /// the resulting happens-before edges, grouped by receiver rank in
    /// stream order (deterministic). Unmatched sends or receives (a
    /// protocol violation) produce no edge.
    pub fn message_edges(&self) -> Vec<MessageEdge> {
        use std::collections::{HashMap, VecDeque};
        // Per (src, dst) channel: queued sends in send order.
        struct PendingSend {
            event: usize,
            start: f64,
            end: f64,
        }
        let mut channels: HashMap<(usize, usize), VecDeque<PendingSend>> = HashMap::new();
        for (src, stream) in self.events.iter().enumerate() {
            for (i, ev) in stream.iter().enumerate() {
                if let TraceEvent::Send {
                    start, end, peer, ..
                } = *ev
                {
                    channels
                        .entry((src, peer))
                        .or_default()
                        .push_back(PendingSend {
                            event: i,
                            start,
                            end,
                        });
                }
            }
        }
        let mut edges = Vec::new();
        for (dst, stream) in self.events.iter().enumerate() {
            let mut phase_stack: Vec<&str> = Vec::new();
            for (i, ev) in stream.iter().enumerate() {
                match ev {
                    TraceEvent::PhaseBegin { name, .. } => phase_stack.push(name),
                    TraceEvent::PhaseEnd { .. } => {
                        phase_stack.pop();
                    }
                    TraceEvent::Recv {
                        posted,
                        completed,
                        peer,
                        tag,
                        words,
                        wait,
                    } => {
                        if let Some(send) =
                            channels.get_mut(&(*peer, dst)).and_then(|q| q.pop_front())
                        {
                            edges.push(MessageEdge {
                                src: *peer,
                                dst,
                                tag: *tag,
                                words: *words,
                                send_event: send.event,
                                recv_event: i,
                                send_start: send.start,
                                send_end: send.end,
                                recv_posted: *posted,
                                recv_completed: *completed,
                                wait: *wait,
                                phase: phase_stack.last().map(|s| s.to_string()),
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
        edges
    }

    /// One-pass per-phase aggregation. Each accountable event is attributed
    /// to the innermost phase open on its rank; events occurring *after* a
    /// phase closed but before the next one opens (e.g. the step-boundary
    /// `Sync` a [`crate::Session`] records after the rank body returns) are
    /// carried into the last closed phase, matching the per-step trace
    /// capture the engine uses. Events before any phase has opened on a
    /// rank are dropped. Phases are returned in order of first appearance.
    pub fn phase_breakdowns(&self) -> Vec<PhaseAgg> {
        use std::collections::HashMap;
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut aggs: Vec<PhaseAgg> = Vec::new();
        for stream in &self.events {
            // Indices into `aggs` of the open phases; `current` falls back
            // to the last closed phase when the stack empties (carry rule).
            let mut stack: Vec<usize> = Vec::new();
            let mut current: Option<usize> = None;
            for ev in stream {
                match ev {
                    TraceEvent::PhaseBegin { name, start } => {
                        let idx = *index.entry(name.clone()).or_insert_with(|| {
                            aggs.push(PhaseAgg {
                                name: name.clone(),
                                start: f64::INFINITY,
                                end: f64::NEG_INFINITY,
                                ..PhaseAgg::default()
                            });
                            aggs.len() - 1
                        });
                        aggs[idx].start = aggs[idx].start.min(*start);
                        stack.push(idx);
                        current = Some(idx);
                    }
                    TraceEvent::PhaseEnd { name, end } => {
                        let popped = stack.pop();
                        debug_assert_eq!(
                            popped.map(|i| aggs[i].name.as_str()),
                            Some(name.as_str()),
                            "unbalanced phase markers"
                        );
                        if let Some(idx) = popped {
                            aggs[idx].end = aggs[idx].end.max(*end);
                            // Carry: `current` stays on the phase just
                            // closed unless an outer phase is still open.
                            current = stack.last().copied().or(Some(idx));
                        }
                    }
                    _ => {
                        let Some(idx) = current else { continue };
                        let a = &mut aggs[idx];
                        match *ev {
                            TraceEvent::Compute { start, end } => a.compute += end - start,
                            TraceEvent::Send {
                                start, end, words, ..
                            } => {
                                a.wire += end - start;
                                a.msgs += 1;
                                a.words += words;
                            }
                            TraceEvent::Recv { wait, .. } => a.wait += wait,
                            TraceEvent::Sync { start, end } => a.wait += end - start,
                            TraceEvent::Fault { start, end, .. } => a.injected += end - start,
                            _ => {}
                        }
                    }
                }
            }
        }
        for a in &mut aggs {
            if !a.start.is_finite() {
                a.start = 0.0;
            }
            if !a.end.is_finite() {
                a.end = a.start;
            }
        }
        aggs
    }

    /// The per-(phase, rank) refinement of [`TraceLog::phase_breakdowns`]:
    /// identical attribution rules (innermost open phase; events after a
    /// close carry into the last closed phase; events before any phase are
    /// dropped), but the accounted split is kept per rank, and each phase
    /// additionally collects the top-level collective counters of calls
    /// entered while it was current. Summing a phase's rank splits
    /// reproduces the corresponding [`PhaseAgg`] fields (up to float
    /// reassociation — the counters match exactly). Phases are returned in
    /// order of first appearance.
    pub fn phase_rank_breakdowns(&self) -> Vec<PhaseRankAgg> {
        use std::collections::HashMap;
        let nranks = self.events.len();
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut aggs: Vec<PhaseRankAgg> = Vec::new();
        for (rank, stream) in self.events.iter().enumerate() {
            let mut stack: Vec<usize> = Vec::new();
            let mut current: Option<usize> = None;
            // Enclosing collectives: (kind, phase current at top-level enter).
            let mut coll_stack: Vec<(CollectiveKind, Option<usize>)> = Vec::new();
            for ev in stream {
                match ev {
                    TraceEvent::PhaseBegin { name, start } => {
                        let idx = *index.entry(name.clone()).or_insert_with(|| {
                            aggs.push(PhaseRankAgg {
                                name: name.clone(),
                                start: f64::INFINITY,
                                end: f64::NEG_INFINITY,
                                ranks: vec![RankPhaseSplit::default(); nranks],
                                collectives: Default::default(),
                            });
                            aggs.len() - 1
                        });
                        aggs[idx].start = aggs[idx].start.min(*start);
                        stack.push(idx);
                        current = Some(idx);
                    }
                    TraceEvent::PhaseEnd { name, end } => {
                        let popped = stack.pop();
                        debug_assert_eq!(
                            popped.map(|i| aggs[i].name.as_str()),
                            Some(name.as_str()),
                            "unbalanced phase markers"
                        );
                        if let Some(idx) = popped {
                            aggs[idx].end = aggs[idx].end.max(*end);
                            current = stack.last().copied().or(Some(idx));
                        }
                    }
                    TraceEvent::CollectiveEnter { kind, start, .. } => {
                        let owner = if coll_stack.is_empty() { current } else { None };
                        if let Some(idx) = owner {
                            let c = &mut aggs[idx].collectives[kind.index()];
                            c.calls += 1;
                            c.seconds -= start; // paired with += end at exit
                        }
                        coll_stack.push((*kind, owner));
                    }
                    TraceEvent::CollectiveExit { kind, end, .. } => {
                        let popped = coll_stack.pop();
                        debug_assert_eq!(
                            popped.map(|(k, _)| k),
                            Some(*kind),
                            "unbalanced collective markers"
                        );
                        if let Some((_, Some(idx))) = popped {
                            aggs[idx].collectives[kind.index()].seconds += end;
                        }
                    }
                    _ => {
                        if let TraceEvent::Send { words, .. } = *ev {
                            if let Some(&(top, Some(idx))) = coll_stack.first() {
                                let c = &mut aggs[idx].collectives[top.index()];
                                c.msgs += 1;
                                c.words += words;
                            }
                        }
                        let Some(idx) = current else { continue };
                        let r = &mut aggs[idx].ranks[rank];
                        match *ev {
                            TraceEvent::Compute { start, end } => r.compute += end - start,
                            TraceEvent::Send {
                                start, end, words, ..
                            } => {
                                r.wire += end - start;
                                r.msgs += 1;
                                r.words += words;
                            }
                            TraceEvent::Recv { wait, .. } => r.wait += wait,
                            TraceEvent::Sync { start, end } => r.wait += end - start,
                            TraceEvent::Fault { start, end, .. } => r.injected += end - start,
                            _ => {}
                        }
                    }
                }
            }
        }
        for a in &mut aggs {
            if !a.start.is_finite() {
                a.start = 0.0;
            }
            if !a.end.is_finite() {
                a.end = a.start;
            }
        }
        aggs
    }

    /// Extract the events inside every `name` phase span (markers included)
    /// as a log of the same rank count. Same-name nesting is handled by
    /// depth counting. Events outside the span — including trailing
    /// step-boundary syncs — are excluded.
    pub fn phase_slice(&self, name: &str) -> TraceLog {
        let mut out = TraceLog {
            events: vec![Vec::new(); self.events.len()],
        };
        for (rank, stream) in self.events.iter().enumerate() {
            let dst = &mut out.events[rank];
            let mut depth = 0usize;
            for ev in stream {
                match ev {
                    TraceEvent::PhaseBegin { name: n, .. } if n == name => {
                        depth += 1;
                        dst.push(ev.clone());
                    }
                    TraceEvent::PhaseEnd { name: n, .. } if n == name && depth > 0 => {
                        depth -= 1;
                        dst.push(ev.clone());
                    }
                    _ if depth > 0 => dst.push(ev.clone()),
                    _ => {}
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spmd, MachineModel};

    /// A small but communication-heavy program touching every collective.
    fn run_workload() -> Vec<RankResult<f64>> {
        spmd(5, MachineModel::sp2(), |comm| {
            comm.phase("setup", |c| c.compute(50.0 + c.rank() as f64));
            comm.barrier();
            let v = comm.bcast(2, 4, (comm.rank() == 2).then(|| vec![1u64; 4]));
            comm.gather(1, 4, v.clone());
            let back = comm.scatter(3, 2, (comm.rank() == 3).then(|| vec![0u64; 5]));
            comm.allgather(1, back);
            comm.allreduce_sum_f64(comm.rank() as f64);
            let p = comm.nranks();
            let items: Vec<(u64, usize)> = (0..p).map(|d| (3, d)).collect();
            comm.alltoallv(items);
            comm.reduce(4, 1, comm.rank() as u64, |a, b| a + b);
            comm.exscan(2, vec![comm.rank() as u64; 2], |a, b| {
                a.iter().zip(&b).map(|(x, y)| x + y).collect()
            });
            comm.now()
        })
    }

    #[test]
    fn summary_reconstructs_elapsed_exactly() {
        let results = run_workload();
        let log = TraceLog::from_results(&results);
        let summary = log.summary();
        for (r, s) in results.iter().zip(&summary.ranks) {
            assert!(
                (s.total() - r.elapsed).abs() < 1e-9,
                "rank {}: trace accounts for {} but clock says {}",
                r.rank,
                s.total(),
                r.elapsed
            );
        }
    }

    #[test]
    fn summary_counters_match_comm_statistics() {
        let results = run_workload();
        let summary = TraceLog::from_results(&results).summary();
        for (r, s) in results.iter().zip(&summary.ranks) {
            assert_eq!(s.msgs_sent, r.sent_messages, "rank {}", r.rank);
            assert_eq!(s.words_sent, r.sent_words, "rank {}", r.rank);
        }
        // Each collective was called exactly once per rank, at top level.
        for s in &summary.ranks {
            for kind in COLLECTIVE_KINDS {
                assert_eq!(
                    s.collective(kind).calls,
                    1,
                    "rank {} collective {}",
                    s.rank,
                    kind.name()
                );
            }
            // The nested gather/bcast inside allgather/allreduce must not be
            // double-counted as top-level calls.
            assert!(s.collective(CollectiveKind::Gather).calls == 1);
        }
    }

    #[test]
    fn exports_are_deterministic_across_runs() {
        let a = TraceLog::from_results(&run_workload());
        let b = TraceLog::from_results(&run_workload());
        assert_eq!(a.chrome_json(), b.chrome_json());
        assert_eq!(a.text_timeline(), b.text_timeline());
    }

    #[test]
    fn chrome_json_is_wellformed_and_has_rank_tracks() {
        let json = TraceLog::from_results(&run_workload()).chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.trim_end().ends_with("]}"));
        for rank in 0..5 {
            assert!(json.contains(&format!("\"args\":{{\"name\":\"rank {rank}\"}}")));
        }
        assert!(json.contains("\"name\":\"barrier\""));
        assert!(json.contains("\"name\":\"setup\""));
        // Balanced braces / brackets (cheap well-formedness proxy; none of
        // the emitted strings contain braces).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn clean_run_passes_protocol_check() {
        let log = TraceLog::from_results(&run_workload());
        let violations = check_protocol(&log);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn checker_flags_corrupted_collective_sequence() {
        let mut log = TraceLog::from_results(&run_workload());
        // Corrupt rank 3: swap its barrier for a bcast, as if one rank took
        // a different branch and called a different collective.
        let stream = &mut log.events[3];
        let pos = stream
            .iter()
            .position(|ev| {
                matches!(
                    ev,
                    TraceEvent::CollectiveEnter {
                        kind: CollectiveKind::Barrier,
                        ..
                    }
                )
            })
            .unwrap();
        if let TraceEvent::CollectiveEnter { kind, .. } = &mut stream[pos] {
            *kind = CollectiveKind::Bcast;
        }
        let violations = check_protocol(&log);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                ProtocolViolation::CollectiveSequenceMismatch {
                    rank: 3,
                    reference: Some(CollectiveKind::Barrier),
                    got: Some(CollectiveKind::Bcast),
                    ..
                }
            )),
            "checker missed the corruption: {violations:?}"
        );
    }

    #[test]
    fn checker_flags_a_rank_that_skipped_its_scan() {
        let mut log = TraceLog::from_results(&run_workload());
        // Rank 2 loses its scan markers, as if it returned before the scan.
        log.events[2].retain(|ev| {
            !matches!(
                ev,
                TraceEvent::CollectiveEnter {
                    kind: CollectiveKind::Scan,
                    ..
                } | TraceEvent::CollectiveExit {
                    kind: CollectiveKind::Scan,
                    ..
                }
            )
        });
        let violations = check_protocol(&log);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                ProtocolViolation::CollectiveSequenceMismatch {
                    rank: 2,
                    reference: Some(CollectiveKind::Scan),
                    got: None,
                    ..
                }
            )),
            "checker missed the skipped scan: {violations:?}"
        );
    }

    #[test]
    fn checker_flags_tag_order_mismatch() {
        let mut log = TraceLog::from_results(&run_workload());
        // Corrupt one send tag on rank 0 so the sender/receiver tag
        // sequences on that channel disagree.
        let ev = log.events[0]
            .iter_mut()
            .find_map(|ev| match ev {
                TraceEvent::Send { tag, .. } => Some(tag),
                _ => None,
            })
            .unwrap();
        *ev += 1;
        let violations = check_protocol(&log);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, ProtocolViolation::TagOrderMismatch { src: 0, .. })),
            "checker missed the tag corruption: {violations:?}"
        );
    }

    #[test]
    fn rewind_attempt_is_traced_and_flagged() {
        let results = spmd(2, MachineModel::sp2(), |comm| {
            comm.advance(1.0);
            comm.advance(-0.5); // cost-model bug: blocked, not applied
            comm.now()
        });
        for r in &results {
            assert!((r.value - 1.0).abs() < 1e-15, "clock must saturate");
        }
        let log = TraceLog::from_results(&results);
        assert_eq!(log.summary().ranks[0].rewinds_blocked, 1);
        let violations = check_protocol(&log);
        assert_eq!(
            violations
                .iter()
                .filter(|v| matches!(v, ProtocolViolation::ClockRewind { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn phase_spans_nest_and_export() {
        let results = spmd(2, MachineModel::sp2(), |comm| {
            comm.phase("outer", |c| {
                c.compute(10.0);
                c.phase("inner", |c| c.barrier());
            });
        });
        let log = TraceLog::from_results(&results);
        let json = log.chrome_json();
        assert!(json.contains("\"name\":\"outer\""));
        assert!(json.contains("\"name\":\"inner\""));
        let text = log.text_timeline();
        assert!(text.contains("phase outer begin"));
        assert!(text.contains("phase inner end"));
    }

    #[test]
    fn message_edges_pair_fifo_and_honor_causality() {
        let results = run_workload();
        let log = TraceLog::from_results(&results);
        let edges = log.message_edges();
        let summary = log.summary();
        // Every send in this clean run is received, so edge count == total
        // messages sent.
        assert_eq!(edges.len() as u64, summary.total_msgs());
        for e in &edges {
            // Causality: the payload cannot complete before the send ended.
            assert!(
                e.recv_completed >= e.send_end - 1e-12,
                "edge {e:?} violates causality"
            );
            assert!(e.wait >= 0.0);
            // The edge indices really point at a Send / Recv pair.
            assert!(matches!(
                log.events[e.src][e.send_event],
                TraceEvent::Send { peer, .. } if peer == e.dst
            ));
            assert!(matches!(
                log.events[e.dst][e.recv_event],
                TraceEvent::Recv { peer, .. } if peer == e.src
            ));
        }
        // The setup phase sends nothing; the first edges belong to the
        // barrier, which runs outside any phase span.
        assert!(edges.iter().all(|e| e.phase.is_none()));
    }

    #[test]
    fn message_edges_record_receiver_phase() {
        let results = spmd(2, MachineModel::sp2(), |comm| {
            comm.phase("exchange", |c| {
                if c.rank() == 0 {
                    c.send(1, 7, 10, 3u8);
                } else {
                    c.recv::<u8>(0, 7);
                }
            });
        });
        let edges = TraceLog::from_results(&results).message_edges();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].phase.as_deref(), Some("exchange"));
        assert_eq!((edges[0].src, edges[0].dst), (0, 1));
        assert_eq!(edges[0].words, 10);
    }

    #[test]
    fn phase_breakdowns_match_per_phase_summaries() {
        // Two phases per rank with disjoint activity; the one-pass
        // aggregation must reproduce what slicing + summary() computes.
        let results = spmd(3, MachineModel::sp2(), |comm| {
            comm.phase("a", |c| {
                c.compute(40.0 * (c.rank() + 1) as f64);
                c.barrier();
            });
            comm.phase("b", |c| {
                let p = c.nranks();
                let items: Vec<(u64, usize)> = (0..p).map(|d| (2, d)).collect();
                c.alltoallv(items);
            });
        });
        let log = TraceLog::from_results(&results);
        let aggs = log.phase_breakdowns();
        assert_eq!(
            aggs.iter().map(|a| a.name.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"],
            "appearance order"
        );
        for agg in &aggs {
            let sliced = log.phase_slice(&agg.name).summary();
            let compute: f64 = sliced.ranks.iter().map(|r| r.compute).sum();
            let wire: f64 = sliced.ranks.iter().map(|r| r.wire).sum();
            assert!((agg.compute - compute).abs() < 1e-12, "{agg:?}");
            assert!((agg.wire - wire).abs() < 1e-12, "{agg:?}");
            // Wait can only exceed the slice by carried step-boundary syncs
            // (the last phase absorbs the trailing alignment idle).
            let wait: f64 = sliced.ranks.iter().map(|r| r.wait).sum();
            assert!(agg.wait >= wait - 1e-12, "{agg:?}");
            assert_eq!(agg.msgs, sliced.total_msgs());
            assert_eq!(agg.words, sliced.total_words());
            assert!(agg.elapsed() > 0.0);
        }
        // Everything in this run happens inside a phase (plus carried
        // syncs), so summing the aggs reproduces the full summary exactly.
        let full = log.summary();
        let agg_total: f64 = aggs.iter().map(|a| a.total()).sum();
        let full_total: f64 = full.ranks.iter().map(|r| r.total()).sum();
        assert!((agg_total - full_total).abs() < 1e-12);
        assert_eq!(aggs.iter().map(|a| a.msgs).sum::<u64>(), full.total_msgs());
    }

    #[test]
    fn phase_rank_breakdowns_refine_phase_breakdowns() {
        // The per-(phase, rank) split must sum back to phase_breakdowns
        // field-for-field, report the same phase order/extents, and its
        // collective counters must sum to the full summary's (every
        // collective in this workload is entered inside a phase or its
        // carried tail).
        let results = run_workload();
        let log = TraceLog::from_results(&results);
        let flat = log.phase_breakdowns();
        let split = log.phase_rank_breakdowns();
        assert_eq!(flat.len(), split.len());
        for (f, s) in flat.iter().zip(&split) {
            assert_eq!(f.name, s.name);
            assert_eq!(f.start, s.start);
            assert_eq!(f.end, s.end);
            assert_eq!(s.ranks.len(), log.nranks());
            let sum = |get: fn(&RankPhaseSplit) -> f64| -> f64 { s.ranks.iter().map(get).sum() };
            assert!((f.compute - sum(|r| r.compute)).abs() < 1e-12, "{s:?}");
            assert!((f.wire - sum(|r| r.wire)).abs() < 1e-12, "{s:?}");
            assert!((f.wait - sum(|r| r.wait)).abs() < 1e-12, "{s:?}");
            assert!((f.injected - sum(|r| r.injected)).abs() < 1e-12, "{s:?}");
            assert_eq!(f.msgs, s.ranks.iter().map(|r| r.msgs).sum::<u64>());
            assert_eq!(f.words, s.ranks.iter().map(|r| r.words).sum::<u64>());
        }
        let full = log.summary();
        for kind in COLLECTIVE_KINDS {
            let calls: u64 = split.iter().map(|s| s.collective(kind).calls).sum();
            let msgs: u64 = split.iter().map(|s| s.collective(kind).msgs).sum();
            let words: u64 = split.iter().map(|s| s.collective(kind).words).sum();
            let secs: f64 = split.iter().map(|s| s.collective(kind).seconds).sum();
            let full_calls: u64 = full.ranks.iter().map(|r| r.collective(kind).calls).sum();
            let full_msgs: u64 = full.ranks.iter().map(|r| r.collective(kind).msgs).sum();
            let full_words: u64 = full.ranks.iter().map(|r| r.collective(kind).words).sum();
            let full_secs: f64 = full.ranks.iter().map(|r| r.collective(kind).seconds).sum();
            assert_eq!(calls, full_calls, "{kind:?}");
            assert_eq!(msgs, full_msgs, "{kind:?}");
            assert_eq!(words, full_words, "{kind:?}");
            assert!((secs - full_secs).abs() < 1e-12, "{kind:?}");
        }
    }

    #[test]
    fn phase_breakdowns_carry_trailing_syncs_into_last_phase() {
        // A Session step whose body is one phase: the step-boundary Sync
        // falls after PhaseEnd but must be carried into that phase, so the
        // per-phase totals match the full per-step accounting.
        let mut sess = crate::Session::new(3, MachineModel::sp2());
        let r = sess.run(vec![(); 3], |comm, ()| {
            comm.phase("work", |c| c.advance(c.rank() as f64));
        });
        let log = TraceLog::from_results(&r);
        let aggs = log.phase_breakdowns();
        assert_eq!(aggs.len(), 1);
        let full = log.summary();
        let total: f64 = full.ranks.iter().map(|s| s.total()).sum();
        assert!(
            (aggs[0].total() - total).abs() < 1e-12,
            "carry rule must account the trailing syncs: {} vs {}",
            aggs[0].total(),
            total
        );
        // The slice (which excludes trailing syncs) accounts for less.
        let sliced: f64 = log
            .phase_slice("work")
            .summary()
            .ranks
            .iter()
            .map(|s| s.total())
            .sum();
        assert!(sliced < total - 0.5);
    }

    #[test]
    fn phase_slice_extracts_only_span_events() {
        let results = spmd(2, MachineModel::sp2(), |comm| {
            comm.compute(10.0); // outside any phase
            comm.phase("p", |c| c.compute(20.0));
            comm.compute(30.0); // outside again
        });
        let log = TraceLog::from_results(&results);
        let sliced = log.phase_slice("p");
        assert_eq!(sliced.nranks(), 2);
        for stream in &sliced.events {
            assert_eq!(stream.len(), 3, "begin + compute + end");
            assert!(matches!(stream[0], TraceEvent::PhaseBegin { .. }));
            assert!(matches!(stream[2], TraceEvent::PhaseEnd { .. }));
        }
        let s = sliced.summary();
        let model = MachineModel::sp2();
        for r in &s.ranks {
            assert!((r.compute - model.compute_time(20.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn merged_trace_offsets_and_wraps_phases() {
        let results = spmd(2, MachineModel::sp2(), |comm| comm.barrier());
        let log = TraceLog::from_results(&results);
        let mut merged = MergedTrace::new(2);
        merged.add_uniform_span("solver", 0.0, 1.0);
        merged.add_log("marking", &log, 1.0);
        let mlog = merged.log();
        assert_eq!(mlog.nranks(), 2);
        // Every shifted event sits at or after the offset.
        for stream in &mlog.events {
            for ev in stream {
                assert!(ev.time() >= 0.0);
            }
            assert!(stream.iter().any(
                |ev| matches!(ev, TraceEvent::PhaseBegin { name, start } if name == "marking" && *start == 1.0)
            ));
        }
        // The merged log still passes the protocol check (tag sequences are
        // preserved by shifting).
        assert!(check_protocol(mlog).is_empty());
    }
}
