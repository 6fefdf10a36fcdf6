//! Deterministic, seeded fault plans.
//!
//! A [`FaultPlan`] is a schedule of adverse conditions a host simulation
//! replays against an otherwise-healthy run: PFS channel capacity
//! degradation or outage windows, transient per-flow I/O errors with POSIX
//! error codes, straggler ranks, and injected request cancellations. Every
//! element is derived from the plan's seed through [`stream_rng`], so a plan
//! replays bit-identically and a plan with all magnitudes at their neutral
//! values is indistinguishable from no plan at all.
//!
//! The plan itself is runtime-agnostic: `pfsim` consumes the channel
//! windows, `mpisim` consumes the error model, stragglers, cancellations and
//! the [`RetryPolicy`] of its ADIO layer.

use crate::error::{SimError, SimResult};
use crate::rng::{stream_rng, SmallRng};
use crate::Channel;

/// Which PFS channel a fault window applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultChannel {
    /// The write channel only.
    Write,
    /// The read channel only.
    Read,
    /// Both channels (whole-file-system outage or congestion).
    Both,
}

impl FaultChannel {
    /// Whether the window applies to `channel`.
    pub fn applies_to(self, channel: Channel) -> bool {
        match self {
            FaultChannel::Write => channel == Channel::Write,
            FaultChannel::Read => channel == Channel::Read,
            FaultChannel::Both => true,
        }
    }
}

/// A capacity degradation window: over `[start, end)` the channel's nominal
/// capacity is multiplied by `factor` (0 = hard outage, completions freeze;
/// 1 = no effect). Overlapping windows on the same channel compound
/// multiplicatively.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelFaultWindow {
    /// Affected channel(s).
    pub channel: FaultChannel,
    /// Window start, seconds (inclusive).
    pub start: f64,
    /// Window end, seconds (exclusive).
    pub end: f64,
    /// Capacity multiplier in `[0, 1]` while the window is active.
    pub factor: f64,
}

/// POSIX-style error codes for injected I/O failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoErrorKind {
    /// Generic I/O error (`EIO`).
    Io,
    /// Out of space on the target (`ENOSPC`).
    NoSpace,
    /// Operation timed out (`ETIMEDOUT`).
    Timeout,
    /// Stale file handle — e.g. a failed-over PFS server (`ESTALE`).
    Stale,
    /// Request cancelled by the fault plan (`ECANCELED`).
    Cancelled,
}

impl IoErrorKind {
    /// The numeric errno the kind models.
    pub fn code(self) -> i32 {
        match self {
            IoErrorKind::Io => 5,
            IoErrorKind::NoSpace => 28,
            IoErrorKind::Timeout => 110,
            IoErrorKind::Stale => 116,
            IoErrorKind::Cancelled => 125,
        }
    }

    /// The errno's symbolic name.
    pub fn name(self) -> &'static str {
        match self {
            IoErrorKind::Io => "EIO",
            IoErrorKind::NoSpace => "ENOSPC",
            IoErrorKind::Timeout => "ETIMEDOUT",
            IoErrorKind::Stale => "ESTALE",
            IoErrorKind::Cancelled => "ECANCELED",
        }
    }
}

/// Transient sub-request failure model: each sub-request transfer fails with
/// probability `prob`, drawing its error code uniformly from `kinds`.
#[derive(Clone, Debug, PartialEq)]
pub struct IoErrorModel {
    /// Per-sub-request failure probability in `[0, 1]`.
    pub prob: f64,
    /// Candidate error codes (uniform choice). Must be non-empty when
    /// `prob > 0`.
    pub kinds: Vec<IoErrorKind>,
}

impl IoErrorModel {
    /// A model failing each sub-request with probability `prob` as `EIO`.
    pub fn with_prob(prob: f64) -> Self {
        IoErrorModel {
            prob,
            kinds: vec![IoErrorKind::Io],
        }
    }

    /// Draws one sub-request outcome: `Some(kind)` on failure.
    ///
    /// Draws nothing from `rng` when `prob` is 0, so an inert model cannot
    /// perturb downstream draws.
    pub fn draw(&self, rng: &mut SmallRng) -> Option<IoErrorKind> {
        if self.prob <= 0.0 {
            return None;
        }
        assert!(
            !self.kinds.is_empty(),
            "error model needs at least one kind"
        );
        if rng.next_f64() < self.prob {
            let i = rng.below(self.kinds.len() as u64) as usize;
            Some(self.kinds[i])
        } else {
            None
        }
    }
}

/// A straggler rank: every compute phase of `rank` takes `factor`× its
/// (noise-adjusted) nominal duration. `factor` 1 is a no-op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StragglerSpec {
    /// Affected rank.
    pub rank: usize,
    /// Compute-duration multiplier (≥ 1 slows the rank down).
    pub factor: f64,
}

/// Injected cancellation of one asynchronous request: the `op_index`-th
/// async submit (0-based) of `rank` is cancelled by the runtime after its
/// in-flight sub-request, surfacing as an [`IoErrorKind::Cancelled`] op
/// error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CancelSpec {
    /// Affected rank.
    pub rank: usize,
    /// Index of the async submission on that rank (0-based).
    pub op_index: u64,
}

/// Bounded deterministic exponential backoff for sub-request retries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retries per sub-request before the op fails.
    pub max_retries: u32,
    /// Backoff before the first retry, seconds (virtual time).
    pub base_backoff: f64,
    /// Multiplier applied per subsequent retry.
    pub multiplier: f64,
    /// Upper bound on a single backoff sleep, seconds.
    pub max_backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: 1e-3,
            multiplier: 2.0,
            max_backoff: 0.1,
        }
    }
}

impl RetryPolicy {
    /// The backoff sleep before retry number `retry` (0-based): deterministic
    /// `base·multiplier^retry`, capped at `max_backoff`.
    pub fn backoff(&self, retry: u32) -> f64 {
        debug_assert!(self.base_backoff >= 0.0 && self.multiplier >= 0.0);
        (self.base_backoff * self.multiplier.powi(retry as i32)).min(self.max_backoff)
    }
}

/// A seeded schedule of fault events. `FaultPlan::default()` is the empty
/// (fault-free) plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for all fault-related RNG streams (independent of the world's
    /// noise streams).
    pub seed: u64,
    /// Capacity degradation / outage windows.
    pub channel_faults: Vec<ChannelFaultWindow>,
    /// Transient sub-request error model (`None` = no injected errors).
    pub io_errors: Option<IoErrorModel>,
    /// Straggler ranks.
    pub stragglers: Vec<StragglerSpec>,
    /// Injected async-request cancellations.
    pub cancellations: Vec<CancelSpec>,
    /// Retry/backoff policy of the consuming ADIO layer.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// The empty (fault-free) plan.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// The capacity windows that can actually change behaviour (non-neutral
    /// factor over a non-empty span).
    pub fn active_channel_faults(&self) -> impl Iterator<Item = &ChannelFaultWindow> {
        self.channel_faults
            .iter()
            .filter(|w| w.factor != 1.0 && w.end > w.start)
    }

    /// Whether the transient-error model can fire.
    pub fn io_errors_active(&self) -> bool {
        self.io_errors.as_ref().is_some_and(|m| m.prob > 0.0)
    }

    /// The compound capacity factor on `channel` at time `t`: the product
    /// of every active window containing `t` (windows are right-open).
    pub fn capacity_factor(&self, channel: Channel, t: f64) -> f64 {
        self.active_channel_faults()
            .filter(|w| w.channel.applies_to(channel) && w.start <= t && t < w.end)
            .map(|w| w.factor)
            .product()
    }

    /// The compound compute-duration multiplier for `rank` (1 when the rank
    /// has no straggler entry).
    pub fn straggler_factor(&self, rank: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.rank == rank && s.factor != 1.0)
            .map(|s| s.factor)
            .product()
    }

    /// Whether the `op_index`-th async submit of `rank` is cancelled.
    pub fn cancels(&self, rank: usize, op_index: u64) -> bool {
        self.cancellations
            .iter()
            .any(|c| c.rank == rank && c.op_index == op_index)
    }

    /// The RNG for fault decisions of logical stream `stream` (e.g. one I/O
    /// task). Independent of the world's noise streams by construction: the
    /// plan seed is salted before mixing.
    pub fn stream(&self, stream: u64) -> SmallRng {
        stream_rng(self.seed ^ 0x00FA_017F_A017, stream)
    }

    /// Rejects plans a supervised run cannot execute sensibly: NaN or
    /// infinite window edges, factors outside `[0, 1]`, inverted spans
    /// (zero-length windows are inert and allowed),
    /// overlapping active windows on the same channel (a validated config
    /// must schedule one degradation at a time — hand-built plans may still
    /// compound, see [`FaultPlan::capacity_factor`]), out-of-range error
    /// probabilities, non-positive straggler factors, and negative or NaN
    /// retry-policy terms.
    pub fn validate(&self) -> SimResult<()> {
        let bad = |field: &str, reason: String| Err(SimError::invalid_config(field, reason));
        for (i, w) in self.channel_faults.iter().enumerate() {
            let f = format!("faults.channel_faults[{i}]");
            if !w.start.is_finite() || w.start < 0.0 {
                return bad(
                    &f,
                    format!("start must be finite and >= 0, got {}", w.start),
                );
            }
            // Zero-length windows are inert no-ops, so `end == start` passes.
            if !w.end.is_finite() || w.end < w.start {
                return bad(
                    &f,
                    format!(
                        "end must be finite and >= start, got [{}, {})",
                        w.start, w.end
                    ),
                );
            }
            if !w.factor.is_finite() || !(0.0..=1.0).contains(&w.factor) {
                return bad(&f, format!("factor must be in [0, 1], got {}", w.factor));
            }
        }
        let active: Vec<&ChannelFaultWindow> = self.active_channel_faults().collect();
        for (i, a) in active.iter().enumerate() {
            for b in active.iter().skip(i + 1) {
                let share_channel = [Channel::Write, Channel::Read]
                    .into_iter()
                    .any(|c| a.channel.applies_to(c) && b.channel.applies_to(c));
                if share_channel && a.start < b.end && b.start < a.end {
                    return bad(
                        "faults.channel_faults",
                        format!(
                            "windows [{}, {}) and [{}, {}) overlap on a shared channel",
                            a.start, a.end, b.start, b.end
                        ),
                    );
                }
            }
        }
        if let Some(m) = &self.io_errors {
            if !m.prob.is_finite() || !(0.0..=1.0).contains(&m.prob) {
                return bad(
                    "faults.io_errors.prob",
                    format!("probability must be in [0, 1], got {}", m.prob),
                );
            }
            if m.prob > 0.0 && m.kinds.is_empty() {
                return bad(
                    "faults.io_errors.kinds",
                    "error model with positive probability needs at least one kind".into(),
                );
            }
        }
        for (i, s) in self.stragglers.iter().enumerate() {
            if !s.factor.is_finite() || s.factor <= 0.0 {
                return bad(
                    &format!("faults.stragglers[{i}].factor"),
                    format!("must be finite and positive, got {}", s.factor),
                );
            }
        }
        let r = &self.retry;
        if !r.base_backoff.is_finite() || r.base_backoff < 0.0 {
            return bad(
                "faults.retry.base_backoff",
                format!("must be finite and >= 0, got {}", r.base_backoff),
            );
        }
        if !r.multiplier.is_finite() || r.multiplier < 0.0 {
            return bad(
                "faults.retry.multiplier",
                format!("must be finite and >= 0, got {}", r.multiplier),
            );
        }
        if !r.max_backoff.is_finite() || r.max_backoff < 0.0 {
            return bad(
                "faults.retry.max_backoff",
                format!("must be finite and >= 0, got {}", r.max_backoff),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `plan` cannot affect a run: no active capacity windows, no
    /// error probability, no effective stragglers, no cancellations.
    fn inert(plan: &FaultPlan) -> bool {
        plan.active_channel_faults().next().is_none()
            && !plan.io_errors_active()
            && plan.stragglers.iter().all(|s| s.factor == 1.0)
            && plan.cancellations.is_empty()
    }

    #[test]
    fn default_plan_is_inert() {
        assert!(inert(&FaultPlan::default()));
        assert!(inert(&FaultPlan::empty()));
    }

    #[test]
    fn neutral_magnitudes_stay_inert() {
        let plan = FaultPlan {
            channel_faults: vec![ChannelFaultWindow {
                channel: FaultChannel::Both,
                start: 1.0,
                end: 2.0,
                factor: 1.0,
            }],
            io_errors: Some(IoErrorModel::with_prob(0.0)),
            stragglers: vec![StragglerSpec {
                rank: 0,
                factor: 1.0,
            }],
            ..FaultPlan::default()
        };
        assert!(inert(&plan));
        assert_eq!(plan.capacity_factor(Channel::Write, 1.5), 1.0);
        assert_eq!(plan.straggler_factor(0), 1.0);
    }

    #[test]
    fn outage_window_is_right_open() {
        let plan = FaultPlan {
            channel_faults: vec![ChannelFaultWindow {
                channel: FaultChannel::Write,
                start: 1.0,
                end: 2.0,
                factor: 0.0,
            }],
            ..FaultPlan::default()
        };
        assert!(!inert(&plan));
        assert_eq!(plan.capacity_factor(Channel::Write, 0.5), 1.0);
        assert_eq!(plan.capacity_factor(Channel::Write, 1.0), 0.0);
        assert_eq!(plan.capacity_factor(Channel::Write, 1.999), 0.0);
        assert_eq!(plan.capacity_factor(Channel::Write, 2.0), 1.0);
        // Read channel untouched.
        assert_eq!(plan.capacity_factor(Channel::Read, 1.5), 1.0);
    }

    #[test]
    fn capacity_factor_selects_the_window_channel() {
        let cases = [
            (FaultChannel::Write, [0.5, 1.0]),
            (FaultChannel::Read, [1.0, 0.5]),
            (FaultChannel::Both, [0.5, 0.5]),
        ];
        for (fc, want) in cases {
            let plan = FaultPlan {
                channel_faults: vec![ChannelFaultWindow {
                    channel: fc,
                    start: 1.0,
                    end: 2.0,
                    factor: 0.5,
                }],
                ..FaultPlan::default()
            };
            for (ch, w) in [Channel::Write, Channel::Read].into_iter().zip(want) {
                assert_eq!(fc.applies_to(ch), w < 1.0, "{fc:?} on {ch:?}");
                assert_eq!(plan.capacity_factor(ch, 1.5), w, "{fc:?} on {ch:?}");
                assert_eq!(plan.capacity_factor(ch, 2.0), 1.0, "{fc:?} on {ch:?}");
            }
        }
    }

    #[test]
    fn overlapping_windows_compound() {
        let w = |start: f64, end: f64, factor: f64| ChannelFaultWindow {
            channel: FaultChannel::Both,
            start,
            end,
            factor,
        };
        let plan = FaultPlan {
            channel_faults: vec![w(0.0, 10.0, 0.5), w(5.0, 6.0, 0.5)],
            ..FaultPlan::default()
        };
        assert_eq!(plan.capacity_factor(Channel::Write, 1.0), 0.5);
        assert_eq!(plan.capacity_factor(Channel::Read, 5.5), 0.25);
    }

    #[test]
    fn backoff_is_exponential_and_bounded() {
        let r = RetryPolicy {
            max_retries: 5,
            base_backoff: 1e-3,
            multiplier: 2.0,
            max_backoff: 3e-3,
        };
        assert_eq!(r.backoff(0), 1e-3);
        assert_eq!(r.backoff(1), 2e-3);
        assert_eq!(r.backoff(2), 3e-3); // capped
        assert_eq!(r.backoff(10), 3e-3);
    }

    #[test]
    fn error_draws_are_deterministic() {
        let model = IoErrorModel {
            prob: 0.5,
            kinds: vec![IoErrorKind::Io, IoErrorKind::Timeout, IoErrorKind::Stale],
        };
        let plan = FaultPlan {
            seed: 7,
            io_errors: Some(model.clone()),
            ..FaultPlan::default()
        };
        let draw_seq = || -> Vec<Option<IoErrorKind>> {
            let mut rng = plan.stream(42);
            (0..64).map(|_| model.draw(&mut rng)).collect()
        };
        let a = draw_seq();
        assert_eq!(a, draw_seq());
        assert!(a.iter().any(|d| d.is_some()), "prob 0.5 should fire in 64");
        assert!(a.iter().any(|d| d.is_none()));
    }

    #[test]
    fn zero_prob_draws_nothing_from_rng() {
        let model = IoErrorModel::with_prob(0.0);
        let mut a = stream_rng(1, 2);
        let mut b = stream_rng(1, 2);
        assert_eq!(model.draw(&mut a), None);
        // `a` must be untouched: next draws match a virgin stream.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn error_codes_are_posix() {
        assert_eq!(IoErrorKind::Io.code(), 5);
        assert_eq!(IoErrorKind::NoSpace.code(), 28);
        assert_eq!(IoErrorKind::Cancelled.name(), "ECANCELED");
    }

    #[test]
    fn validate_accepts_sane_plans() {
        assert_eq!(FaultPlan::default().validate(), Ok(()));
        let plan = FaultPlan {
            channel_faults: vec![
                ChannelFaultWindow {
                    channel: FaultChannel::Write,
                    start: 1.0,
                    end: 2.0,
                    factor: 0.0,
                },
                ChannelFaultWindow {
                    channel: FaultChannel::Read,
                    start: 1.5,
                    end: 2.5,
                    factor: 0.5,
                },
            ],
            io_errors: Some(IoErrorModel::with_prob(0.05)),
            stragglers: vec![StragglerSpec {
                rank: 0,
                factor: 1.5,
            }],
            ..FaultPlan::default()
        };
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_windows() {
        let w = |start, end, factor| FaultPlan {
            channel_faults: vec![ChannelFaultWindow {
                channel: FaultChannel::Both,
                start,
                end,
                factor,
            }],
            ..FaultPlan::default()
        };
        assert!(w(f64::NAN, 1.0, 0.5).validate().is_err());
        assert!(w(0.0, f64::INFINITY, 0.5).validate().is_err());
        assert!(w(2.0, 1.0, 0.5).validate().is_err());
        assert!(w(0.0, 1.0, -0.1).validate().is_err());
        assert!(w(0.0, 1.0, 1.5).validate().is_err());
        // Overlap on a shared channel is rejected for validated configs.
        let overlap = FaultPlan {
            channel_faults: vec![
                ChannelFaultWindow {
                    channel: FaultChannel::Both,
                    start: 0.0,
                    end: 10.0,
                    factor: 0.5,
                },
                ChannelFaultWindow {
                    channel: FaultChannel::Write,
                    start: 5.0,
                    end: 6.0,
                    factor: 0.5,
                },
            ],
            ..FaultPlan::default()
        };
        assert!(overlap.validate().is_err());
        // Disjoint channels may share a time span.
        let disjoint = FaultPlan {
            channel_faults: vec![
                ChannelFaultWindow {
                    channel: FaultChannel::Write,
                    start: 0.0,
                    end: 10.0,
                    factor: 0.5,
                },
                ChannelFaultWindow {
                    channel: FaultChannel::Read,
                    start: 5.0,
                    end: 6.0,
                    factor: 0.5,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(disjoint.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_models() {
        let plan = FaultPlan {
            io_errors: Some(IoErrorModel {
                prob: 1.5,
                kinds: vec![IoErrorKind::Io],
            }),
            ..FaultPlan::default()
        };
        assert!(plan.validate().is_err());
        let plan = FaultPlan {
            io_errors: Some(IoErrorModel {
                prob: 0.5,
                kinds: vec![],
            }),
            ..FaultPlan::default()
        };
        assert!(plan.validate().is_err());
        let plan = FaultPlan {
            stragglers: vec![StragglerSpec {
                rank: 0,
                factor: 0.0,
            }],
            ..FaultPlan::default()
        };
        assert!(plan.validate().is_err());
        let plan = FaultPlan {
            retry: RetryPolicy {
                base_backoff: f64::NAN,
                ..RetryPolicy::default()
            },
            ..FaultPlan::default()
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    fn cancellation_lookup() {
        let plan = FaultPlan {
            cancellations: vec![CancelSpec {
                rank: 2,
                op_index: 1,
            }],
            ..FaultPlan::default()
        };
        assert!(plan.cancels(2, 1));
        assert!(!plan.cancels(2, 0));
        assert!(!plan.cancels(1, 1));
        assert!(!inert(&plan));
    }
}
