//! The federation protocol: the paper's six generic request types.
//!
//! "We restricted the federation protocol to only six generic request
//! types" (§4.1): `READ`, `PUT`, `GET`, `EXEC_INST`, `EXEC_UDF`, `CLEAR`.
//! One RPC carries a *sequence* of requests and returns one response per
//! request; the coordinator issues RPCs to all workers in parallel.

use bytes::{Buf, BufMut};
use exdra_matrix::ValueType;
use exdra_net::codec::{DecodeError, DecodeResult, Wire};

use crate::instruction::Instruction;
use crate::privacy::PrivacyLevel;
use crate::udf::Udf;
use crate::value::DataValue;

/// On-disk format selector for `READ` requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadFormat {
    /// Headerless numeric CSV read as a matrix.
    MatrixCsv,
    /// `EXDRAMT1` binary matrix file.
    MatrixBin,
    /// CSV-with-header read as a frame using an explicit schema.
    FrameCsv {
        /// One value type per column.
        schema: Vec<ValueType>,
    },
    /// CSV-with-header read as a frame with schema inference over a sample.
    FrameCsvInfer,
}

fn vt_tag(v: ValueType) -> u8 {
    match v {
        ValueType::F64 => 0,
        ValueType::I64 => 1,
        ValueType::Str => 2,
        ValueType::Bool => 3,
    }
}

fn vt_from(t: u8) -> DecodeResult<ValueType> {
    Ok(match t {
        0 => ValueType::F64,
        1 => ValueType::I64,
        2 => ValueType::Str,
        3 => ValueType::Bool,
        other => return Err(DecodeError(format!("invalid ValueType tag {other}"))),
    })
}

impl Wire for ReadFormat {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            ReadFormat::MatrixCsv => buf.put_u8(0),
            ReadFormat::MatrixBin => buf.put_u8(1),
            ReadFormat::FrameCsv { schema } => {
                buf.put_u8(2);
                (schema.len() as u64).encode(buf);
                for &v in schema {
                    buf.put_u8(vt_tag(v));
                }
            }
            ReadFormat::FrameCsvInfer => buf.put_u8(3),
        }
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(ReadFormat::MatrixCsv),
            1 => Ok(ReadFormat::MatrixBin),
            2 => {
                let n = u64::decode(buf)? as usize;
                let mut schema = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    schema.push(vt_from(u8::decode(buf)?)?);
                }
                Ok(ReadFormat::FrameCsv { schema })
            }
            3 => Ok(ReadFormat::FrameCsvInfer),
            t => Err(DecodeError(format!("invalid ReadFormat tag {t}"))),
        }
    }
}

impl Wire for PrivacyLevel {
    fn encode(&self, buf: &mut impl BufMut) {
        let (tag, group) = self.to_parts();
        buf.put_u8(tag);
        group.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        let tag = u8::decode(buf)?;
        let group = u64::decode(buf)?;
        PrivacyLevel::from_parts(tag, group)
            .ok_or_else(|| DecodeError(format!("invalid PrivacyLevel tag {tag}")))
    }
}

/// One symbol-table binding inside a checkpoint: the value together
/// with the metadata needed to rebind it losslessly on a replacement
/// worker. Privacy constraints travel with the data and are reinstalled
/// verbatim — a checkpoint is runtime-internal state transfer, not a
/// release, so the coordinator stores entries opaquely and only ever
/// sends them back via [`Request::Restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEntry {
    /// Symbol ID (coordinator-owned ID space, unique across workers).
    pub id: u64,
    /// The stored value.
    pub value: DataValue,
    /// Privacy constraint of the stored value.
    pub privacy: PrivacyLevel,
    /// Whether the value may be released under its constraint.
    pub releasable: bool,
    /// Lineage hash of the producing (sub-)plan, tagging the checkpoint
    /// entry with *what computation* it materializes.
    pub lineage: u64,
}

impl Wire for CheckpointEntry {
    fn encode(&self, buf: &mut impl BufMut) {
        self.id.encode(buf);
        self.value.encode(buf);
        self.privacy.encode(buf);
        buf.put_u8(self.releasable as u8);
        self.lineage.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        Ok(CheckpointEntry {
            id: u64::decode(buf)?,
            value: DataValue::decode(buf)?,
            privacy: PrivacyLevel::decode(buf)?,
            releasable: u8::decode(buf)? != 0,
            lineage: u64::decode(buf)?,
        })
    }
}

/// An incremental checkpoint: every binding mutated after the requested
/// sequence number plus the IDs removed since, stamped with the table's
/// current mutation sequence and the worker's registration epoch (an
/// epoch change mid-stream means the worker restarted and the
/// coordinator must restart from a full snapshot, `since_seq = 0`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckpointDelta {
    /// Table mutation sequence the delta is current up to.
    pub seq: u64,
    /// Registration epoch of the worker that produced the delta.
    pub epoch: u64,
    /// Bindings created or updated after the requested sequence.
    pub entries: Vec<CheckpointEntry>,
    /// IDs removed after the requested sequence.
    pub removed: Vec<u64>,
}

impl Wire for CheckpointDelta {
    fn encode(&self, buf: &mut impl BufMut) {
        self.seq.encode(buf);
        self.epoch.encode(buf);
        self.entries.encode(buf);
        self.removed.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        Ok(CheckpointDelta {
            seq: u64::decode(buf)?,
            epoch: u64::decode(buf)?,
            entries: Vec::<CheckpointEntry>::decode(buf)?,
            removed: Vec::<u64>::decode(buf)?,
        })
    }
}

/// One federated request (paper §4.1).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `READ(ID, fname)`: the worker reads a local file into its symbol
    /// table under the given privacy constraint.
    Read {
        /// Target symbol ID.
        id: u64,
        /// Worker-local file path.
        fname: String,
        /// File format.
        format: ReadFormat,
        /// Constraint attached to the loaded raw data.
        privacy: PrivacyLevel,
    },
    /// `PUT(ID, data)`: stores a transferred value in the symbol table.
    Put {
        /// Target symbol ID.
        id: u64,
        /// Transferred value.
        data: DataValue,
        /// Constraint attached at the worker.
        privacy: PrivacyLevel,
    },
    /// `GET(ID)`: returns a value to the coordinator (privacy-checked).
    Get {
        /// Symbol ID to fetch.
        id: u64,
    },
    /// `EXEC_INST(inst)`: executes an instruction over the symbol table.
    ExecInst {
        /// The instruction.
        inst: Instruction,
    },
    /// `EXEC_UDF(udf)`: executes a (named or built-in) UDF.
    ExecUdf {
        /// The UDF.
        udf: Udf,
    },
    /// `CLEAR`: drops all variables and execution state.
    Clear,
    /// `HEARTBEAT`: liveness probe, answered with [`Response::Alive`]. It
    /// never touches the symbol table and is answered even in a batch
    /// whose earlier request failed. A connection serves its frames in
    /// order, so a probe that must not wait behind data traffic travels
    /// on a connection of its own (the service's supervisor has one).
    Heartbeat,
    /// `CHECKPOINT(since_seq)`: the worker serializes every symbol-table
    /// binding mutated after `since_seq` (0 = full snapshot) into a
    /// [`CheckpointDelta`], answered with [`Response::Checkpoint`]. The
    /// supervisor issues these periodically; deltas ride the normal RPC
    /// envelope, so channel encryption and shaping apply unchanged.
    Checkpoint {
        /// Mutation sequence of the last delta the caller already holds.
        since_seq: u64,
    },
    /// `RESTORE(entries)`: rebinds checkpointed entries into the symbol
    /// table, exactly as they were captured (value, privacy constraint,
    /// releasability, lineage). Sent to a replacement worker during
    /// recovery.
    Restore {
        /// The bindings to reinstall.
        entries: Vec<CheckpointEntry>,
    },
    /// `CLEAR_NS(ns)`: drops every symbol whose ID lives in session
    /// namespace `ns` (see [`crate::symbol::NS_SHIFT`]). A multi-tenant
    /// coordinator sends this on session close so a departed tenant's
    /// state is reaped without touching other tenants' bindings.
    ClearNamespace {
        /// The namespace to reap.
        ns: u64,
    },
}

impl Request {
    /// Request-type name (for tracing).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Read { .. } => "READ",
            Request::Put { .. } => "PUT",
            Request::Get { .. } => "GET",
            Request::ExecInst { .. } => "EXEC_INST",
            Request::ExecUdf { .. } => "EXEC_UDF",
            Request::Clear => "CLEAR",
            Request::Heartbeat => "HEARTBEAT",
            Request::Checkpoint { .. } => "CHECKPOINT",
            Request::Restore { .. } => "RESTORE",
            Request::ClearNamespace { .. } => "CLEAR_NS",
        }
    }
}

impl Wire for Request {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Request::Read {
                id,
                fname,
                format,
                privacy,
            } => {
                buf.put_u8(0);
                id.encode(buf);
                fname.encode(buf);
                format.encode(buf);
                privacy.encode(buf);
            }
            Request::Put { id, data, privacy } => {
                buf.put_u8(1);
                id.encode(buf);
                data.encode(buf);
                privacy.encode(buf);
            }
            Request::Get { id } => {
                buf.put_u8(2);
                id.encode(buf);
            }
            Request::ExecInst { inst } => {
                buf.put_u8(3);
                inst.encode(buf);
            }
            Request::ExecUdf { udf } => {
                buf.put_u8(4);
                udf.encode(buf);
            }
            Request::Clear => buf.put_u8(5),
            Request::Heartbeat => buf.put_u8(6),
            Request::Checkpoint { since_seq } => {
                buf.put_u8(7);
                since_seq.encode(buf);
            }
            Request::Restore { entries } => {
                buf.put_u8(8);
                entries.encode(buf);
            }
            Request::ClearNamespace { ns } => {
                buf.put_u8(9);
                ns.encode(buf);
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(Request::Read {
                id: u64::decode(buf)?,
                fname: String::decode(buf)?,
                format: ReadFormat::decode(buf)?,
                privacy: PrivacyLevel::decode(buf)?,
            }),
            1 => Ok(Request::Put {
                id: u64::decode(buf)?,
                data: DataValue::decode(buf)?,
                privacy: PrivacyLevel::decode(buf)?,
            }),
            2 => Ok(Request::Get {
                id: u64::decode(buf)?,
            }),
            3 => Ok(Request::ExecInst {
                inst: Instruction::decode(buf)?,
            }),
            4 => Ok(Request::ExecUdf {
                udf: Udf::decode(buf)?,
            }),
            5 => Ok(Request::Clear),
            6 => Ok(Request::Heartbeat),
            7 => Ok(Request::Checkpoint {
                since_seq: u64::decode(buf)?,
            }),
            8 => Ok(Request::Restore {
                entries: Vec::<CheckpointEntry>::decode(buf)?,
            }),
            9 => Ok(Request::ClearNamespace {
                ns: u64::decode(buf)?,
            }),
            t => Err(DecodeError(format!("invalid Request tag {t}"))),
        }
    }
}

/// One response per request in the RPC.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success with no payload.
    Ok,
    /// Success with a value (GET and data-returning UDFs).
    Data(DataValue),
    /// The request failed at the worker; the batch stops at this request.
    Error(String),
    /// Answer to [`Request::Heartbeat`]: the worker is alive.
    Alive {
        /// The worker process's registration epoch: bumps every time the
        /// worker (re)starts, letting the coordinator detect restarts
        /// that lost the symbol table.
        epoch: u64,
        /// Number of requests executed by the worker so far (a cheap
        /// load signal for straggler decisions).
        load: u32,
    },
    /// Answer to [`Request::Checkpoint`]: the incremental delta.
    Checkpoint(CheckpointDelta),
}

impl Wire for Response {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Response::Ok => buf.put_u8(0),
            Response::Data(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
            Response::Error(msg) => {
                buf.put_u8(2);
                msg.encode(buf);
            }
            Response::Alive { epoch, load } => {
                buf.put_u8(3);
                epoch.encode(buf);
                load.encode(buf);
            }
            Response::Checkpoint(delta) => {
                buf.put_u8(4);
                delta.encode(buf);
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(Response::Ok),
            1 => Ok(Response::Data(DataValue::decode(buf)?)),
            2 => Ok(Response::Error(String::decode(buf)?)),
            3 => Ok(Response::Alive {
                epoch: u64::decode(buf)?,
                load: u32::decode(buf)?,
            }),
            4 => Ok(Response::Checkpoint(CheckpointDelta::decode(buf)?)),
            t => Err(DecodeError(format!("invalid Response tag {t}"))),
        }
    }
}

/// Trace context propagated with every RPC (tentpole of the
/// observability layer): the coordinator stamps its current span onto
/// the envelope so worker-side spans parent into the same trace even
/// across process boundaries. All-zero means "no active trace" and
/// costs 16 bytes on the wire.
///
/// This mirrors `exdra_obs::TraceContext`; the protocol keeps its own
/// copy so `exdra-net`'s `Wire` trait can be implemented here without
/// an orphan impl.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Trace the RPC belongs to (0 = none).
    pub trace_id: u64,
    /// Coordinator-side span that issued the RPC (0 = none).
    pub parent_span: u64,
}

impl TraceContext {
    /// The empty context (tracing disabled or no active span).
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        parent_span: 0,
    };
}

impl From<exdra_obs::TraceContext> for TraceContext {
    fn from(c: exdra_obs::TraceContext) -> Self {
        TraceContext {
            trace_id: c.trace_id,
            parent_span: c.span_id,
        }
    }
}

impl From<TraceContext> for exdra_obs::TraceContext {
    fn from(c: TraceContext) -> Self {
        exdra_obs::TraceContext {
            trace_id: c.trace_id,
            span_id: c.parent_span,
        }
    }
}

impl Wire for TraceContext {
    fn encode(&self, buf: &mut impl BufMut) {
        self.trace_id.encode(buf);
        self.parent_span.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        Ok(TraceContext {
            trace_id: u64::decode(buf)?,
            parent_span: u64::decode(buf)?,
        })
    }
}

/// What actually travels coordinator→worker per RPC: the request batch
/// plus the propagated trace context.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcEnvelope {
    /// Propagated coordinator span (possibly [`TraceContext::NONE`]).
    pub trace: TraceContext,
    /// The request batch; one response comes back per request.
    pub requests: Vec<Request>,
}

impl Wire for RpcEnvelope {
    fn encode(&self, buf: &mut impl BufMut) {
        self.trace.encode(buf);
        self.requests.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        Ok(RpcEnvelope {
            trace: TraceContext::decode(buf)?,
            requests: Vec::<Request>::decode(buf)?,
        })
    }
}

/// Worker-side accounting for one executed batch, returned in the
/// [`RpcReply`] footer so the coordinator can split round-trip time
/// into network wait vs. remote compute without clock synchronization.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchFooter {
    /// Total wall time the worker spent executing the batch (nanos).
    pub exec_nanos: u64,
    /// Per-request execution time, same order as the batch (empty when
    /// the worker doesn't track per-request timing).
    pub request_nanos: Vec<u64>,
    /// Lineage-cache hits during this batch (worker side).
    pub cache_hits: u64,
    /// Lineage-cache misses during this batch (worker side).
    pub cache_misses: u64,
}

impl Wire for BatchFooter {
    fn encode(&self, buf: &mut impl BufMut) {
        self.exec_nanos.encode(buf);
        self.request_nanos.encode(buf);
        self.cache_hits.encode(buf);
        self.cache_misses.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        Ok(BatchFooter {
            exec_nanos: u64::decode(buf)?,
            request_nanos: Vec::<u64>::decode(buf)?,
            cache_hits: u64::decode(buf)?,
            cache_misses: u64::decode(buf)?,
        })
    }
}

/// What travels worker→coordinator per RPC: one response per request
/// plus the per-batch timing footer.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcReply {
    /// One response per request (short on worker-side batch abort).
    pub responses: Vec<Response>,
    /// Worker-side timing/accounting for the batch.
    pub footer: BatchFooter,
}

impl Wire for RpcReply {
    fn encode(&self, buf: &mut impl BufMut) {
        self.responses.encode(buf);
        self.footer.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        Ok(RpcReply {
            responses: Vec::<Response>::decode(buf)?,
            footer: BatchFooter::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_matrix::rng::rand_matrix;

    #[test]
    fn request_batch_roundtrip() {
        let batch: Vec<Request> = vec![
            Request::Read {
                id: 1,
                fname: "/data/x.csv".into(),
                format: ReadFormat::FrameCsv {
                    schema: vec![ValueType::Str, ValueType::F64],
                },
                privacy: PrivacyLevel::PrivateAggregate { min_group: 100 },
            },
            Request::Put {
                id: 2,
                data: DataValue::from(rand_matrix(4, 1, 0.0, 1.0, 3)),
                privacy: PrivacyLevel::Public,
            },
            Request::Get { id: 2 },
            Request::ExecInst {
                inst: Instruction::MatMul {
                    lhs: 1,
                    rhs: 2,
                    t_lhs: false,
                    out: 3,
                },
            },
            Request::ExecUdf {
                udf: Udf::CacheStats,
            },
            Request::Clear,
        ];
        let back = Vec::<Request>::from_bytes(&batch.to_bytes()).unwrap();
        assert_eq!(back, batch);
        assert_eq!(back[0].kind(), "READ");
        assert_eq!(back[5].kind(), "CLEAR");
    }

    #[test]
    fn response_roundtrip() {
        let rs = vec![
            Response::Ok,
            Response::Data(DataValue::Scalar(5.0)),
            Response::Error("privacy violation".into()),
            Response::Alive { epoch: 3, load: 17 },
        ];
        assert_eq!(Vec::<Response>::from_bytes(&rs.to_bytes()).unwrap(), rs);
    }

    #[test]
    fn envelope_and_reply_roundtrip() {
        let env = RpcEnvelope {
            trace: TraceContext {
                trace_id: 42,
                parent_span: 7,
            },
            requests: vec![Request::Get { id: 2 }, Request::Clear],
        };
        let back = RpcEnvelope::from_bytes(&env.to_bytes()).unwrap();
        assert_eq!(back, env);

        let none = RpcEnvelope {
            trace: TraceContext::NONE,
            requests: vec![Request::Heartbeat],
        };
        assert_eq!(RpcEnvelope::from_bytes(&none.to_bytes()).unwrap(), none);

        let reply = RpcReply {
            responses: vec![Response::Ok, Response::Data(DataValue::Scalar(1.5))],
            footer: BatchFooter {
                exec_nanos: 123_456,
                request_nanos: vec![100_000, 23_456],
                cache_hits: 1,
                cache_misses: 3,
            },
        };
        assert_eq!(RpcReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
    }

    #[test]
    fn trace_context_converts_to_and_from_obs() {
        let wire = TraceContext {
            trace_id: 9,
            parent_span: 4,
        };
        let obs: exdra_obs::TraceContext = wire.into();
        assert_eq!(obs.trace_id, 9);
        assert_eq!(obs.span_id, 4);
        assert_eq!(TraceContext::from(obs), wire);
        assert!(exdra_obs::TraceContext::from(TraceContext::NONE).is_none());
    }

    #[test]
    fn checkpoint_messages_roundtrip() {
        let delta = CheckpointDelta {
            seq: 17,
            epoch: 3,
            entries: vec![
                CheckpointEntry {
                    id: 5,
                    value: DataValue::from(rand_matrix(3, 2, -1.0, 1.0, 7)),
                    privacy: PrivacyLevel::PrivateAggregate { min_group: 10 },
                    releasable: false,
                    lineage: 0xfeed,
                },
                CheckpointEntry {
                    id: 6,
                    value: DataValue::Scalar(2.5),
                    privacy: PrivacyLevel::Public,
                    releasable: true,
                    lineage: 1,
                },
            ],
            removed: vec![1, 4],
        };
        let reqs = vec![
            Request::Checkpoint { since_seq: 9 },
            Request::Restore {
                entries: delta.entries.clone(),
            },
        ];
        let back = Vec::<Request>::from_bytes(&reqs.to_bytes()).unwrap();
        assert_eq!(back, reqs);
        assert_eq!(back[0].kind(), "CHECKPOINT");
        assert_eq!(back[1].kind(), "RESTORE");

        let resp = Response::Checkpoint(delta.clone());
        assert_eq!(Response::from_bytes(&resp.to_bytes()).unwrap(), resp);

        // Empty deltas (nothing changed since the last sweep) stay cheap
        // and round-trip too.
        let empty = Response::Checkpoint(CheckpointDelta {
            seq: 17,
            epoch: 3,
            ..CheckpointDelta::default()
        });
        assert_eq!(Response::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn envelope_trace_id_survives_the_wire_at_every_value() {
        for trace_id in [0, 1, u64::MAX - 1, u64::MAX] {
            let env = RpcEnvelope {
                trace: TraceContext {
                    trace_id,
                    parent_span: 1,
                },
                requests: vec![Request::Heartbeat],
            };
            let bytes = env.to_bytes();
            assert_eq!(bytes[..8], trace_id.to_le_bytes(), "trace id leads");
            assert_eq!(RpcEnvelope::from_bytes(&bytes).unwrap(), env);
        }
    }

    #[test]
    fn read_format_roundtrip() {
        for f in [
            ReadFormat::MatrixCsv,
            ReadFormat::MatrixBin,
            ReadFormat::FrameCsv {
                schema: vec![ValueType::Bool, ValueType::I64],
            },
            ReadFormat::FrameCsvInfer,
        ] {
            assert_eq!(ReadFormat::from_bytes(&f.to_bytes()).unwrap(), f);
        }
    }
}
