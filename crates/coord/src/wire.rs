//! Wire format of the attach protocol (client ↔ coordinator server).
//!
//! The attach connection carries four things multiplexed over one
//! socket: the handshake, opaque per-worker RPC payloads (forwarded
//! verbatim — the server never decodes tenant traffic), shared-plan-
//! cache probes, and worker liveness notifications. Frames ride the
//! same length-prefixed framing as worker RPC (`exdra_net::framing`).

use exdra_core::privacy::PrivacyLevel;
use exdra_core::value::DataValue;
use exdra_net::wire_enum;

/// Protocol magic leading every handshake (`"exdrcord"`).
pub(crate) const ATTACH_MAGIC: u64 = 0x6578_6472_636f_7264;
/// Protocol version of this implementation.
pub(crate) const ATTACH_VERSION: u32 = 1;

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

wire_enum! { ClientFrame {
    0 => Attach { magic, version },
    1 => Data { worker, payload },
    2 => CacheProbe { key },
    3 => CachePut { key, privacy, releasable, value },
    4 => Recover { worker },
    5 => Detach,
} }

wire_enum! { ServerFrame {
    0 => Granted { ns, n_workers },
    1 => Rejected { active, max },
    2 => Data { worker, payload },
    3 => CacheHit { privacy, releasable, value },
    4 => CacheMiss,
    5 => WorkerDown { worker },
    6 => WorkerUp { worker },
    7 => DetachAck,
} }

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_net::codec::Wire;

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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One sample of every client frame with its wire bytes.
    fn client_pins() -> Vec<(ClientFrame, &'static str)> {
        vec![
            (
                ClientFrame::Attach {
                    magic: ATTACH_MAGIC,
                    version: ATTACH_VERSION,
                },
                "0064726f637264786501000000",
            ),
            (
                ClientFrame::Data {
                    worker: 3,
                    payload: vec![1, 2, 3, 255],
                },
                "01030000000400000000000000010203ff",
            ),
            (
                ClientFrame::CacheProbe { key: 0xdead_beef },
                "02efbeadde00000000",
            ),
            (
                ClientFrame::CachePut {
                    key: 7,
                    privacy: PrivacyLevel::PrivateAggregate { min_group: 4 },
                    releasable: true,
                    value: DataValue::Scalar(1.5),
                },
                "0307000000000000000104000000000000000102000000000000f83f",
            ),
            (ClientFrame::Recover { worker: 1 }, "0401000000"),
            (ClientFrame::Detach, "05"),
        ]
    }

    /// One sample of every server frame with its wire bytes.
    fn server_pins() -> Vec<(ServerFrame, &'static str)> {
        vec![
            (
                ServerFrame::Granted {
                    ns: 9,
                    n_workers: 2,
                },
                "00090000000000000002000000",
            ),
            (
                ServerFrame::Rejected { active: 8, max: 8 },
                "0108000000000000000800000000000000",
            ),
            (
                ServerFrame::Data {
                    worker: 0,
                    payload: vec![],
                },
                "02000000000000000000000000",
            ),
            (
                ServerFrame::CacheHit {
                    privacy: PrivacyLevel::Public,
                    releasable: false,
                    value: DataValue::Scalar(2.0),
                },
                "0300000000000000000000020000000000000040",
            ),
            (ServerFrame::CacheMiss, "04"),
            (ServerFrame::WorkerDown { worker: 1 }, "0501000000"),
            (ServerFrame::WorkerUp { worker: 1 }, "0601000000"),
            (ServerFrame::DetachAck, "07"),
        ]
    }

    fn check<T: Wire + PartialEq + std::fmt::Debug>(pins: Vec<(T, &str)>) {
        for (frame, want) in pins {
            let bytes = frame.to_bytes();
            assert_eq!(T::from_bytes(&bytes).unwrap(), frame, "round trip");
            assert_eq!(hex(&bytes), want, "{frame:?}: wire bytes");
        }
    }

    #[test]
    fn client_frames_keep_their_bytes() {
        check(client_pins());
        let err = ClientFrame::from_bytes(&[6]).unwrap_err();
        assert_eq!(err.0, "invalid ClientFrame tag 6");
    }

    #[test]
    fn server_frames_keep_their_bytes() {
        check(server_pins());
        let err = ServerFrame::from_bytes(&[8]).unwrap_err();
        assert_eq!(err.0, "invalid ServerFrame tag 8");
    }

    /// Every truncation of every pinned frame, and every one-byte
    /// substitution (`0x00`, `0xff`, byte + 1) at every offset, decodes
    /// to `Ok` or `Err`: a tenant's bytes never panic the service.
    #[test]
    fn mutated_frames_never_panic() {
        fn mutate<T: Wire>(bytes: &[u8]) {
            for cut in 0..bytes.len() {
                let _ = T::from_bytes(&bytes[..cut]);
            }
            let mut buf = bytes.to_vec();
            for at in 0..bytes.len() {
                for sub in [0x00, 0xff, bytes[at].wrapping_add(1)] {
                    buf[at] = sub;
                    let _ = T::from_bytes(&buf);
                }
                buf[at] = bytes[at];
            }
        }
        for (frame, _) in client_pins() {
            mutate::<ClientFrame>(&frame.to_bytes());
        }
        for (frame, _) in server_pins() {
            mutate::<ServerFrame>(&frame.to_bytes());
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
