//! RoCE v2 protocol state machines for StRoM, sans-IO.
//!
//! The paper's stack (Figure 2) separates *data paths* from *state-keeping
//! data structures*: the State Table (PSN windows), the MSN Table (message
//! sequence numbers and the running DMA address of multi-packet writes),
//! the Multi-Queue (per-QP linked lists of outstanding RDMA reads), and the
//! Retransmission Timer. This crate implements each of those structures
//! plus the responder and requester finite state machines that consult
//! them — all as pure logic with no notion of simulated time or I/O, so
//! they are unit-testable in isolation and reusable by the NIC simulation
//! in `strom-nic`.

#![forbid(unsafe_code)]

pub mod dcqcn;
pub mod msn_table;
pub mod multi_queue;
pub mod psn;
pub mod requester;
pub mod responder;
pub mod retransmit;
pub mod state_table;

pub use dcqcn::{Dcqcn, DcqcnConfig};
pub use msn_table::MsnTable;
pub use multi_queue::MultiQueue;
pub use psn::{psn_add, psn_cmp, PsnClass};
pub use requester::{
    Completion, CompletionStatus, PacketDescriptor, PayloadSource, PostError, Requester,
    WorkRequest,
};
pub use responder::{Responder, ResponderAction};
pub use retransmit::RetransmissionTimer;
pub use state_table::StateTable;
