//! `amba` — AMBA 2.0 AHB protocol vocabulary and the AHB+ extensions.
//!
//! This crate defines everything both bus models (the pin-accurate RTL
//! reference in `ahb-rtl` and the transaction-level model in `ahb-tlm`)
//! agree on:
//!
//! * [`ids`] — strongly-typed master identifiers and addresses.
//! * [`signal`] — the AMBA 2.0 AHB signal encodings (`HTRANS`, `HBURST`,
//!   `HSIZE`, `HRESP`, ...) exactly as the specification defines them, with
//!   conversions to and from their bit patterns.
//! * [`burst`] — burst address arithmetic (beat counts, incrementing and
//!   wrapping address sequences, 1 KB boundary rule).
//! * [`txn`] — the transaction vocabulary used at the TLM ports
//!   (`Read(addr, *data, *ctrl)` in the paper) and by the workload
//!   generators, plus the [`txn::TxnArena`] transaction pool backing the
//!   zero-allocation TLM hot path.
//! * [`qos`] — the AHB+ extension registers: real-time / non-real-time
//!   master class and the QoS objective value (paper §2).
//! * [`arbitration`] — the AHB+ arbitration filter chain, implemented once
//!   as a pure decision function so that the RTL and TLM arbiters apply the
//!   *same algorithm* and differ only in timing, which is exactly the
//!   premise of the paper's accuracy comparison.
//! * [`bi`] — the Bus Interface (BI) message types carrying next-transaction
//!   information, idle-bank status and access permission between arbiter
//!   and DDR controller (paper §2, §3.4).
//! * [`bridge`] — the AHB-to-AHB bridge vocabulary of multi-bus platforms:
//!   the interleaved shard-window decode and the crossing records a bridge
//!   slave emits and a bridge master replays.
//! * [`check`] — protocol rule checks shared by both models (paper §3.5).
//!
//! # Transaction pool ownership rules
//!
//! In-flight transactions live in a [`txn::TxnArena`]; components exchange
//! `Copy`-able [`txn::TxnHandle`]s instead of cloning records. The rules:
//!
//! 1. Every live handle has exactly one owner — the component currently
//!    responsible for the transaction (a master port while the request
//!    pends, the write buffer after it absorbs a posted write, the bus
//!    while the data phase runs).
//! 2. Ownership moves with the transaction: master → write buffer on a
//!    successful absorb, master/buffer → bus on grant.
//! 3. Only the owner calls [`txn::TxnArena::release`], exactly once, after
//!    the transaction completes; the handle is dead afterwards.
//! 4. Anyone may *read* through [`txn::TxnArena::get`] while the handle is
//!    live (the arbiter and the DDR path do).
//!
//! Slots are recycled LIFO, so steady-state simulation performs no heap
//! allocation per transaction.
//!
//! # Example
//!
//! ```
//! use amba::burst::BurstKind;
//! use amba::txn::{Transaction, TransferDirection};
//! use amba::ids::{Addr, MasterId};
//!
//! let txn = Transaction::new(MasterId::new(0), Addr::new(0x4000_0000),
//!                            TransferDirection::Read, BurstKind::Incr4,
//!                            amba::signal::HSize::Word);
//! assert_eq!(txn.beats(), 4);
//! assert_eq!(txn.bytes(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbitration;
pub mod bi;
pub mod bridge;
pub mod burst;
pub mod check;
pub mod ids;
pub mod params;
pub mod qos;
pub mod signal;
pub mod txn;

pub use arbitration::{
    ArbiterConfig, ArbitrationFilter, ArbitrationPolicy, RequestSet, SampledRequests, SlotSet,
};
pub use bi::{AccessPermission, BankHint, NextTransactionInfo};
pub use bridge::{BridgeCrossing, BridgePort, CrossingLeg, ReplayStats, WindowMap};
pub use burst::{BurstKind, BurstSequence};
pub use check::ProtocolChecker;
pub use ids::{Addr, MasterId};
pub use params::AhbPlusParams;
pub use qos::{MasterClass, QosConfig, QosRegisterFile};
pub use signal::{HBurst, HResp, HSize, HTrans};
pub use txn::{Transaction, TransactionId, TransferDirection, TxnArena, TxnHandle};
