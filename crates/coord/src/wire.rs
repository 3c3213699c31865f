//! Wire format of the attach protocol (client ↔ coordinator server).
//!
//! The attach connection carries four things multiplexed over one
//! socket: the handshake, opaque per-worker RPC payloads (forwarded
//! verbatim — the server never decodes tenant traffic), shared-plan-
//! cache probes, and worker liveness notifications. Frames ride the
//! same length-prefixed framing as worker RPC (`exdra_net::framing`).

use bytes::{Buf, BufMut};

use exdra_core::privacy::PrivacyLevel;
use exdra_core::value::DataValue;
use exdra_net::codec::{DecodeError, DecodeResult, Wire};

/// Protocol magic leading every handshake (`"exdrcord"`).
pub(crate) const ATTACH_MAGIC: u64 = 0x6578_6472_636f_7264;
/// Protocol version of this implementation.
pub(crate) const ATTACH_VERSION: u32 = 1;

fn put_bytes(buf: &mut impl BufMut, b: &[u8]) {
    (b.len() as u64).encode(buf);
    buf.put_slice(b);
}

fn get_bytes(buf: &mut impl Buf) -> DecodeResult<Vec<u8>> {
    let len = u64::decode(buf)? as usize;
    if buf.remaining() < len {
        return Err(DecodeError(format!(
            "payload of {len} bytes, {} remaining",
            buf.remaining()
        )));
    }
    let mut out = vec![0u8; len];
    buf.copy_to_slice(&mut out);
    Ok(out)
}

/// Client → server frames.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ClientFrame {
    /// Handshake: request admission.
    Attach {
        /// Must equal [`ATTACH_MAGIC`].
        magic: u64,
        /// Must equal [`ATTACH_VERSION`].
        version: u32,
    },
    /// Opaque RPC payload for worker `worker` (an encoded envelope or
    /// reply, as the client's own context sent or received it).
    Data { worker: u32, payload: Vec<u8> },
    /// Probe the shared plan cache.
    CacheProbe { key: u64 },
    /// Publish a computed plan result into the shared cache.
    CachePut {
        key: u64,
        privacy: PrivacyLevel,
        releasable: bool,
        value: DataValue,
    },
    /// Ask the service to recover worker `worker` (client saw it dead).
    Recover { worker: u32 },
    /// Close the session (namespace reaped server-side).
    Detach,
}

/// Server → client frames.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ServerFrame {
    /// Admission granted: the session's namespace and the fleet size.
    Granted { ns: u64, n_workers: u32 },
    /// Admission refused (maps to `FedError::SessionRejected`).
    Rejected { active: u64, max: u64 },
    /// Opaque reply payload from worker `worker`.
    Data { worker: u32, payload: Vec<u8> },
    /// Cache probe answer: present.
    CacheHit {
        privacy: PrivacyLevel,
        releasable: bool,
        value: DataValue,
    },
    /// Cache probe answer: absent.
    CacheMiss,
    /// Worker `worker` is down; its tunnel errors until `WorkerUp`.
    WorkerDown { worker: u32 },
    /// Worker `worker` was recovered; its tunnel is serviceable again.
    WorkerUp { worker: u32 },
    /// Acknowledges `Detach`; the namespace has been reaped.
    DetachAck,
}

impl Wire for ClientFrame {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            ClientFrame::Attach { magic, version } => {
                buf.put_u8(0);
                magic.encode(buf);
                version.encode(buf);
            }
            ClientFrame::Data { worker, payload } => {
                buf.put_u8(1);
                worker.encode(buf);
                put_bytes(buf, payload);
            }
            ClientFrame::CacheProbe { key } => {
                buf.put_u8(2);
                key.encode(buf);
            }
            ClientFrame::CachePut {
                key,
                privacy,
                releasable,
                value,
            } => {
                buf.put_u8(3);
                key.encode(buf);
                privacy.encode(buf);
                releasable.encode(buf);
                value.encode(buf);
            }
            ClientFrame::Recover { worker } => {
                buf.put_u8(4);
                worker.encode(buf);
            }
            ClientFrame::Detach => buf.put_u8(5),
        }
    }

    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(ClientFrame::Attach {
                magic: u64::decode(buf)?,
                version: u32::decode(buf)?,
            }),
            1 => Ok(ClientFrame::Data {
                worker: u32::decode(buf)?,
                payload: get_bytes(buf)?,
            }),
            2 => Ok(ClientFrame::CacheProbe {
                key: u64::decode(buf)?,
            }),
            3 => Ok(ClientFrame::CachePut {
                key: u64::decode(buf)?,
                privacy: PrivacyLevel::decode(buf)?,
                releasable: bool::decode(buf)?,
                value: DataValue::decode(buf)?,
            }),
            4 => Ok(ClientFrame::Recover {
                worker: u32::decode(buf)?,
            }),
            5 => Ok(ClientFrame::Detach),
            t => Err(DecodeError(format!("invalid ClientFrame tag {t}"))),
        }
    }
}

impl Wire for ServerFrame {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            ServerFrame::Granted { ns, n_workers } => {
                buf.put_u8(0);
                ns.encode(buf);
                n_workers.encode(buf);
            }
            ServerFrame::Rejected { active, max } => {
                buf.put_u8(1);
                active.encode(buf);
                max.encode(buf);
            }
            ServerFrame::Data { worker, payload } => {
                buf.put_u8(2);
                worker.encode(buf);
                put_bytes(buf, payload);
            }
            ServerFrame::CacheHit {
                privacy,
                releasable,
                value,
            } => {
                buf.put_u8(3);
                privacy.encode(buf);
                releasable.encode(buf);
                value.encode(buf);
            }
            ServerFrame::CacheMiss => buf.put_u8(4),
            ServerFrame::WorkerDown { worker } => {
                buf.put_u8(5);
                worker.encode(buf);
            }
            ServerFrame::WorkerUp { worker } => {
                buf.put_u8(6);
                worker.encode(buf);
            }
            ServerFrame::DetachAck => buf.put_u8(7),
        }
    }

    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(ServerFrame::Granted {
                ns: u64::decode(buf)?,
                n_workers: u32::decode(buf)?,
            }),
            1 => Ok(ServerFrame::Rejected {
                active: u64::decode(buf)?,
                max: u64::decode(buf)?,
            }),
            2 => Ok(ServerFrame::Data {
                worker: u32::decode(buf)?,
                payload: get_bytes(buf)?,
            }),
            3 => Ok(ServerFrame::CacheHit {
                privacy: PrivacyLevel::decode(buf)?,
                releasable: bool::decode(buf)?,
                value: DataValue::decode(buf)?,
            }),
            4 => Ok(ServerFrame::CacheMiss),
            5 => Ok(ServerFrame::WorkerDown {
                worker: u32::decode(buf)?,
            }),
            6 => Ok(ServerFrame::WorkerUp {
                worker: u32::decode(buf)?,
            }),
            7 => Ok(ServerFrame::DetachAck),
            t => Err(DecodeError(format!("invalid ServerFrame tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_frames_roundtrip() {
        let frames = vec![
            ClientFrame::Attach {
                magic: ATTACH_MAGIC,
                version: ATTACH_VERSION,
            },
            ClientFrame::Data {
                worker: 3,
                payload: vec![1, 2, 3, 255],
            },
            ClientFrame::CacheProbe { key: 0xdead_beef },
            ClientFrame::CachePut {
                key: 7,
                privacy: PrivacyLevel::Public,
                releasable: true,
                value: DataValue::Scalar(1.5),
            },
            ClientFrame::Recover { worker: 1 },
            ClientFrame::Detach,
        ];
        for f in frames {
            assert_eq!(ClientFrame::from_bytes(&f.to_bytes()).unwrap(), f);
        }
    }

    #[test]
    fn server_frames_roundtrip() {
        let frames = vec![
            ServerFrame::Granted {
                ns: 9,
                n_workers: 2,
            },
            ServerFrame::Rejected { active: 8, max: 8 },
            ServerFrame::Data {
                worker: 0,
                payload: vec![],
            },
            ServerFrame::CacheHit {
                privacy: PrivacyLevel::Public,
                releasable: true,
                value: DataValue::Scalar(2.0),
            },
            ServerFrame::CacheMiss,
            ServerFrame::WorkerDown { worker: 1 },
            ServerFrame::WorkerUp { worker: 1 },
            ServerFrame::DetachAck,
        ];
        for f in frames {
            assert_eq!(ServerFrame::from_bytes(&f.to_bytes()).unwrap(), f);
        }
    }

    #[test]
    fn truncated_frames_error() {
        let data = ClientFrame::Data {
            worker: 1,
            payload: vec![9; 32],
        }
        .to_bytes();
        assert!(ClientFrame::from_bytes(&data[..data.len() - 1]).is_err());
        assert!(ServerFrame::from_bytes(&[42]).is_err());
    }
}
