//! Rank programs: the operations an MPI rank can execute.
//!
//! A [`Program`] is the scripted form of a rank's control flow — the op
//! sequence a real application would issue through MPI. Workload crates
//! build programs; the interpreter in [`crate::World`] executes them in
//! virtual time, pulling one op at a time through a [`crate::RankDriver`].

use simcore::TagMap;

/// Handle to a simulated file (created via [`crate::World::create_file`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FileId(pub u32);

/// Caller-chosen tag pairing a non-blocking I/O op with its matching wait,
/// like an `MPI_Request` slot. Must be unique among a rank's outstanding
/// requests.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ReqTag(pub u32);

/// One operation of a rank program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Pure computation for a nominal duration (seconds). The world applies
    /// its configured compute noise.
    Compute {
        /// Nominal duration in seconds before noise.
        seconds: f64,
    },
    /// An in-memory copy of `bytes` (HACC-IO's `memcpy` block); modeled as
    /// compute at a 10 GB/s memory-copy bandwidth, never jittered.
    Memcpy {
        /// Bytes copied.
        bytes: f64,
    },
    /// Synchronizing barrier across all ranks.
    Barrier,
    /// Broadcast of `bytes` from rank 0; modeled as a synchronizing
    /// collective costing `latency·⌈log₂ n⌉ + bytes/net_bw`, with a 5 µs
    /// tree-level latency and a 12.5 GB/s network.
    Bcast {
        /// Payload bytes.
        bytes: f64,
    },
    /// Blocking write (`MPI_File_write_at`): the rank stalls until the bytes
    /// are on the PFS.
    Write {
        /// Target file.
        file: FileId,
        /// Bytes written.
        bytes: f64,
    },
    /// Blocking read (`MPI_File_read_at`).
    Read {
        /// Source file.
        file: FileId,
        /// Bytes read.
        bytes: f64,
    },
    /// Non-blocking write (`MPI_File_iwrite_at`): handed to the rank's I/O
    /// thread, which starts immediately and paces sub-requests against the
    /// rank's current bandwidth limit. Must be matched by [`Op::Wait`].
    IWrite {
        /// Target file.
        file: FileId,
        /// Bytes written.
        bytes: f64,
        /// Request tag for the matching wait.
        tag: ReqTag,
    },
    /// Non-blocking read (`MPI_File_iread_at`). Must be matched by [`Op::Wait`].
    IRead {
        /// Source file.
        file: FileId,
        /// Bytes read.
        bytes: f64,
        /// Request tag for the matching wait.
        tag: ReqTag,
    },
    /// Completes a non-blocking request (`MPI_Wait`): returns immediately if
    /// the I/O thread already finished, otherwise blocks ("async lost" time).
    Wait {
        /// Tag of the request to complete.
        tag: ReqTag,
    },
    /// Non-blocking completion check (`MPI_Test`): never blocks and reports
    /// the request's status to the hooks. The request stays live either
    /// way, so its [`Op::Wait`] still completes it.
    Test {
        /// Tag of the request to probe.
        tag: ReqTag,
    },
}

/// A rank's scripted op sequence.
#[derive(Clone, Debug, Default)]
pub struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program { ops: Vec::new() }
    }

    /// Builds from an op list.
    pub fn from_ops(ops: Vec<Op>) -> Self {
        Program { ops }
    }

    /// Appends an op (builder style).
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// The ops in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for the empty program.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Validates request-tag pairing: every `IWrite`/`IRead` is matched by a
    /// later `Wait` with the same tag before the tag is reused, and every
    /// `Wait` has a preceding unmatched submit. Returns a description of the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut outstanding = TagMap::default();
        for (i, op) in self.ops.iter().enumerate() {
            match *op {
                Op::IWrite { tag, .. } | Op::IRead { tag, .. }
                    if outstanding.insert(tag.0, ()).is_some() =>
                {
                    return Err(format!("op {i}: tag {tag:?} reused while outstanding"));
                }
                Op::Wait { tag } if outstanding.remove(tag.0).is_none() => {
                    return Err(format!("op {i}: wait on tag {tag:?} with no submit"));
                }
                // A test leaves the request live; it must reference one.
                Op::Test { tag } if outstanding.get(tag.0).is_none() => {
                    return Err(format!("op {i}: test on tag {tag:?} with no submit"));
                }
                _ => {}
            }
        }
        // Name the lowest-numbered unmatched tag, so the diagnostic does not
        // depend on the order the tags were submitted in.
        if let Some(tag) = outstanding.lowest() {
            return Err(format!(
                "program ends with unmatched request {:?}",
                ReqTag(tag)
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_matched_pairs() {
        let p = Program::from_ops(vec![
            Op::IWrite {
                file: FileId(0),
                bytes: 10.0,
                tag: ReqTag(1),
            },
            Op::Compute { seconds: 1.0 },
            Op::Wait { tag: ReqTag(1) },
            Op::IWrite {
                file: FileId(0),
                bytes: 10.0,
                tag: ReqTag(1),
            },
            Op::Wait { tag: ReqTag(1) },
        ]);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_tag_reuse() {
        let p = Program::from_ops(vec![
            Op::IWrite {
                file: FileId(0),
                bytes: 10.0,
                tag: ReqTag(1),
            },
            Op::IWrite {
                file: FileId(0),
                bytes: 10.0,
                tag: ReqTag(1),
            },
        ]);
        assert!(p.validate().unwrap_err().contains("reused"));
    }

    #[test]
    fn validate_rejects_orphan_wait() {
        let p = Program::from_ops(vec![Op::Wait { tag: ReqTag(9) }]);
        assert!(p.validate().unwrap_err().contains("no submit"));
    }

    #[test]
    fn validate_rejects_unmatched_submit() {
        let p = Program::from_ops(vec![Op::IRead {
            file: FileId(0),
            bytes: 1.0,
            tag: ReqTag(3),
        }]);
        assert!(p.validate().unwrap_err().contains("unmatched"));
    }

    #[test]
    fn unmatched_report_is_deterministic_lowest_tag() {
        // Several unmatched submits in shuffled order: the message must name
        // the lowest-numbered tag, run after run, regardless of submit
        // order.
        let submit = |tag| Op::IWrite {
            file: FileId(0),
            bytes: 1.0,
            tag: ReqTag(tag),
        };
        for _ in 0..16 {
            let p = Program::from_ops(vec![submit(9), submit(3), submit(7), submit(4)]);
            assert_eq!(
                p.validate().unwrap_err(),
                "program ends with unmatched request ReqTag(3)"
            );
        }
    }

    /// The burst workload's shape: 64 tags outstanding per phase, reused
    /// phase after phase.
    #[test]
    fn burst_shaped_program_validates() {
        let mut ops = Vec::new();
        for _phase in 0..50 {
            for tag in 0..64 {
                ops.push(Op::IWrite {
                    file: FileId(0),
                    bytes: 1.0,
                    tag: ReqTag(tag),
                });
            }
            ops.push(Op::Compute { seconds: 1.0 });
            for tag in (0..64).rev() {
                ops.push(Op::Wait { tag: ReqTag(tag) });
            }
        }
        assert!(Program::from_ops(ops.clone()).validate().is_ok());
        // Drop the last wait: tag 0 of the last phase stays unmatched.
        ops.pop();
        assert_eq!(
            Program::from_ops(ops).validate().unwrap_err(),
            "program ends with unmatched request ReqTag(0)"
        );
    }

    /// Tags far above the program length, next to small ones.
    #[test]
    fn hostile_tags_validate_and_report_like_small_ones() {
        let submit = |tag| Op::IWrite {
            file: FileId(0),
            bytes: 1.0,
            tag: ReqTag(tag),
        };
        let wait = |tag| Op::Wait { tag: ReqTag(tag) };
        let probe = |tag| Op::Test { tag: ReqTag(tag) };
        let max = u32::MAX;
        let ok = Program::from_ops(vec![
            submit(max),
            submit(2),
            submit(max - 1),
            wait(max),
            probe(max - 1),
            wait(max - 1),
            wait(2),
            submit(max),
            wait(max),
        ]);
        assert!(ok.validate().is_ok());
        let reused = Program::from_ops(vec![submit(max), submit(max)]);
        assert_eq!(
            reused.validate().unwrap_err(),
            "op 1: tag ReqTag(4294967295) reused while outstanding"
        );
        let orphan = Program::from_ops(vec![submit(max), wait(max - 1)]);
        assert_eq!(
            orphan.validate().unwrap_err(),
            "op 1: wait on tag ReqTag(4294967294) with no submit"
        );
        // The lowest unmatched tag, whether small or hostile. The computes
        // make tag 5 small: below the program's op count.
        let compute = Op::Compute { seconds: 1.0 };
        let both = Program::from_ops(vec![
            submit(max),
            submit(max - 7),
            submit(5),
            compute,
            compute,
            compute,
        ]);
        assert_eq!(
            both.validate().unwrap_err(),
            "program ends with unmatched request ReqTag(5)"
        );
        let hostile_only = Program::from_ops(vec![submit(max), submit(max - 7)]);
        assert_eq!(
            hostile_only.validate().unwrap_err(),
            "program ends with unmatched request ReqTag(4294967288)"
        );
    }

    #[test]
    fn multiple_outstanding_tags_allowed() {
        let p = Program::from_ops(vec![
            Op::IWrite {
                file: FileId(0),
                bytes: 10.0,
                tag: ReqTag(1),
            },
            Op::IRead {
                file: FileId(0),
                bytes: 10.0,
                tag: ReqTag(2),
            },
            Op::Wait { tag: ReqTag(2) },
            Op::Wait { tag: ReqTag(1) },
        ]);
        assert!(p.validate().is_ok());
    }
}
