//! A cut-through CRC64 verify stage: end-to-end integrity on streams.
//!
//! §6.3's consistency kernel checks CRCs on *reads*; this kernel is its
//! streaming dual for *writes* and kernel pipelines: the sender appends an
//! 8 B CRC64 trailer, the stage forwards the payload cut-through while
//! accumulating the running CRC (the streaming [`crate::crc64::Crc64`]),
//! withholding only the trailing 8 bytes. At end of stream the withheld
//! trailer is compared against the computed digest — on a match a 16 B
//! verdict `(crc, payload_len)` goes to the requester; on a mismatch the
//! stage raises the in-band [`crate::framework::ERR_INCONSISTENT`]
//! sentinel, which a [`crate::framework::KernelChain`] latches to starve
//! downstream stages (corrupted data never reaches them).
//!
//! Because the stage lags the stream by exactly 8 bytes it adds one word
//! of latency — the cut-through property that makes it composable ahead of
//! shuffle/filter stages without store-and-forward buffering.

use bytes::Bytes;

use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

use crate::crc64::Crc64;
use crate::framework::{
    error_word, Kernel, KernelAction, KernelEvent, ERR_BAD_PARAMS, ERR_INCONSISTENT,
};

/// Parameters of the CRC verify stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrcVerifyParams {
    /// Requester-side address the 16 B verdict is written to.
    pub target_address: u64,
}

impl CrcVerifyParams {
    /// Encodes into the RPC Params payload.
    pub fn encode(&self) -> Bytes {
        Bytes::copy_from_slice(&self.target_address.to_le_bytes())
    }

    /// Decodes from the RPC Params payload.
    pub fn decode(buf: &[u8]) -> Option<CrcVerifyParams> {
        if buf.len() < 8 {
            return None;
        }
        Some(CrcVerifyParams {
            target_address: u64::from_le_bytes(buf[0..8].try_into().expect("sized")),
        })
    }
}

/// Bytes of the CRC64 trailer a stream ends with.
pub const TRAILER_LEN: usize = 8;

/// Turns a payload into the stream this stage expects by appending its
/// CRC64 trailer in place (sender-side helper).
pub fn push_trailer(stream: &mut Vec<u8>) {
    let crc = crate::crc64::crc64(stream);
    stream.extend_from_slice(&crc.to_le_bytes());
}

#[derive(Debug, Default)]
enum State {
    #[default]
    Unconfigured,
    Active {
        qpn: Qpn,
        target: u64,
    },
}

/// The CRC verify stage FSM.
#[derive(Debug, Default)]
pub struct CrcVerifyKernel {
    state: State,
    /// Running CRC over the *released* (forwarded) bytes.
    crc: Crc64,
    /// The last ≤ 8 bytes seen — candidate trailer, withheld from the
    /// forward stream until more data proves it is payload.
    tail: Vec<u8>,
    /// Staging for the tail plus one inbound word; keeps its capacity.
    window: Vec<u8>,
    /// Payload bytes released downstream so far.
    released: u64,
}

impl CrcVerifyKernel {
    /// Creates an unconfigured stage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes the 16 B verdict `(crc, payload_len)`.
    pub fn encode_verdict(crc: u64, payload_len: u64) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..8].copy_from_slice(&crc.to_le_bytes());
        out[8..16].copy_from_slice(&payload_len.to_le_bytes());
        out
    }

    /// Decodes a verdict into `(crc, payload_len)`.
    pub fn decode_verdict(buf: &[u8]) -> Option<(u64, u64)> {
        if buf.len() < 16 {
            return None;
        }
        Some((
            u64::from_le_bytes(buf[0..8].try_into().expect("sized")),
            u64::from_le_bytes(buf[8..16].try_into().expect("sized")),
        ))
    }
}

impl Kernel for CrcVerifyKernel {
    fn rpc_op(&self) -> RpcOpCode {
        RpcOpCode::CRC_VERIFY
    }

    fn name(&self) -> &'static str {
        "crc-verify"
    }

    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
        match event {
            KernelEvent::Invoke { qpn, params } => {
                let Some(p) = CrcVerifyParams::decode(&params) else {
                    return;
                };
                self.crc = Crc64::new();
                self.tail.clear();
                self.released = 0;
                self.state = State::Active {
                    qpn,
                    target: p.target_address,
                };
                out.push(KernelAction::Done);
            }
            KernelEvent::RoceData { data, last, .. } => {
                let State::Active { qpn, target } = self.state else {
                    return;
                };
                // Lag the stream by the trailer: everything older is payload.
                let mut window = std::mem::take(&mut self.window);
                window.clear();
                window.extend_from_slice(&self.tail);
                window.extend_from_slice(&data);
                let (release, tail) = window.split_at(window.len().saturating_sub(TRAILER_LEN));
                if !release.is_empty() {
                    self.crc.update(release);
                    self.released += release.len() as u64;
                    out.push(KernelAction::Forward {
                        data: Bytes::copy_from_slice(release),
                        last: false,
                    });
                }
                self.tail.clear();
                self.tail.extend_from_slice(tail);
                self.window = window;
                if last {
                    if self.tail.len() < TRAILER_LEN {
                        // Stream shorter than the trailer: malformed.
                        out.push(KernelAction::RoceSend {
                            qpn,
                            remote_vaddr: target,
                            data: Bytes::copy_from_slice(&error_word(ERR_BAD_PARAMS)),
                        });
                    } else {
                        let expected =
                            u64::from_le_bytes(self.tail[..TRAILER_LEN].try_into().expect("sized"));
                        let computed = self.crc.finish();
                        if computed == expected {
                            out.push(KernelAction::RoceSend {
                                qpn,
                                remote_vaddr: target,
                                data: Bytes::copy_from_slice(&Self::encode_verdict(
                                    computed,
                                    self.released,
                                )),
                            });
                        } else {
                            out.push(KernelAction::RoceSend {
                                qpn,
                                remote_vaddr: target,
                                data: Bytes::copy_from_slice(&error_word(ERR_INCONSISTENT)),
                            });
                        }
                    }
                    out.push(KernelAction::Done);
                }
            }
            KernelEvent::DmaData { .. } => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::decode_error;

    fn configured() -> CrcVerifyKernel {
        let mut k = CrcVerifyKernel::new();
        let a = k.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: CrcVerifyParams {
                target_address: 0x6000,
            }
            .encode(),
        });
        assert_eq!(a, vec![KernelAction::Done]);
        k
    }

    fn drive(k: &mut CrcVerifyKernel, stream: &[u8], chunk: usize) -> Vec<KernelAction> {
        let mut all = Vec::new();
        let mut fed = 0;
        for c in stream.chunks(chunk.max(1)) {
            fed += c.len();
            all.extend(k.on_event(KernelEvent::RoceData {
                qpn: 1,
                data: Bytes::copy_from_slice(c),
                last: fed == stream.len(),
            }));
        }
        if stream.is_empty() {
            all.extend(k.on_event(KernelEvent::RoceData {
                qpn: 1,
                data: Bytes::new(),
                last: true,
            }));
        }
        all
    }

    fn forwarded(actions: &[KernelAction]) -> Vec<u8> {
        let mut out = Vec::new();
        for a in actions {
            if let KernelAction::Forward { data, .. } = a {
                out.extend_from_slice(data);
            }
        }
        out
    }

    fn verdict(actions: &[KernelAction]) -> Bytes {
        actions
            .iter()
            .find_map(|a| match a {
                KernelAction::RoceSend { data, .. } => Some(data.clone()),
                _ => None,
            })
            .expect("verdict send")
    }

    #[test]
    fn valid_stream_forwards_payload_and_reports_crc() {
        let payload: Vec<u8> = (0..5000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut stream = payload.clone();
        push_trailer(&mut stream);
        for chunk in [1usize, 7, 8, 9, 1440, stream.len()] {
            let mut k = configured();
            let actions = drive(&mut k, &stream, chunk);
            assert_eq!(forwarded(&actions), payload, "chunk = {chunk}");
            let (crc, len) = CrcVerifyKernel::decode_verdict(&verdict(&actions)).unwrap();
            assert_eq!(crc, crate::crc64::crc64(&payload));
            assert_eq!(len, payload.len() as u64);
            assert_eq!(*actions.last().unwrap(), KernelAction::Done);
        }
    }

    #[test]
    fn corrupted_payload_raises_the_sentinel() {
        let payload = b"the quick brown fox jumps over the lazy dog".to_vec();
        let mut stream = payload.clone();
        push_trailer(&mut stream);
        stream[10] ^= 0x40; // Flip one payload bit.
        let mut k = configured();
        let actions = drive(&mut k, &stream, 13);
        let v = verdict(&actions);
        assert_eq!(v.len(), 8, "sentinel is one word");
        let word = u64::from_le_bytes(v[..].try_into().unwrap());
        assert_eq!(decode_error(word), Some(ERR_INCONSISTENT));
    }

    #[test]
    fn corrupted_trailer_raises_the_sentinel() {
        let mut stream = vec![0xAAu8; 100];
        push_trailer(&mut stream);
        let n = stream.len();
        stream[n - 1] ^= 0x01;
        let mut k = configured();
        let actions = drive(&mut k, &stream, 32);
        let word = u64::from_le_bytes(verdict(&actions)[..].try_into().unwrap());
        assert_eq!(decode_error(word), Some(ERR_INCONSISTENT));
    }

    #[test]
    fn short_stream_is_bad_params() {
        let mut k = configured();
        let actions = drive(&mut k, b"abc", 3);
        assert!(forwarded(&actions).is_empty());
        let word = u64::from_le_bytes(verdict(&actions)[..].try_into().unwrap());
        assert_eq!(decode_error(word), Some(ERR_BAD_PARAMS));
    }

    #[test]
    fn empty_payload_with_trailer_verifies() {
        // An empty payload still carries its (fixed) CRC trailer.
        let mut stream = Vec::new();
        push_trailer(&mut stream);
        assert_eq!(stream.len(), TRAILER_LEN);
        let mut k = configured();
        let actions = drive(&mut k, &stream, 8);
        assert!(forwarded(&actions).is_empty());
        let (crc, len) = CrcVerifyKernel::decode_verdict(&verdict(&actions)).unwrap();
        assert_eq!((crc, len), (crate::crc64::crc64(&[]), 0));
    }

    #[test]
    fn data_before_configuration_is_ignored() {
        let mut k = CrcVerifyKernel::new();
        assert!(k
            .on_event(KernelEvent::RoceData {
                qpn: 1,
                data: Bytes::from_static(b"xxxxxxxxxx"),
                last: true,
            })
            .is_empty());
    }
}
