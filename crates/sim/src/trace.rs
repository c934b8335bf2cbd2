//! Trace budget accounting.
//!
//! The paper's experiment framework dumps protocol events to each
//! node's STDIO and reconstructs network state offline (§4.2). The
//! simulation needs no such log: every result is computed in process
//! (the `obs` timeline and counters, the run records), so a [`Trace`]
//! stores nothing. It keeps one number, [`Trace::dropped`]: how many
//! emits of enabled categories fell past the record budget. That count
//! is what a bounded log of that budget would have lost, and it is
//! kept because it is part of every run's artifact (`trace_dropped`).

use crate::{Instant, NodeId};

/// Category of a trace emit. Mirrors the layers of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// BLE link layer: connection open/close/loss, event skip, etc.
    Link,
    /// Radio medium: transmissions, collisions, jamming.
    Phy,
    /// IPv6 / forwarding decisions.
    Net,
    /// Application layer (CoAP requests/responses).
    App,
    /// Connection manager (statconn) actions.
    ConnMgr,
    /// Buffer accounting (drops, occupancy highwater).
    Buffer,
}

/// Record-budget counter with per-category enable switches. Stores no
/// records and never allocates.
#[derive(Debug)]
pub struct Trace {
    enabled: [bool; 6],
    /// Emits of enabled categories so far.
    emitted: u64,
    capacity: u64,
}

fn kind_idx(kind: TraceKind) -> usize {
    match kind {
        TraceKind::Link => 0,
        TraceKind::Phy => 1,
        TraceKind::Net => 2,
        TraceKind::App => 3,
        TraceKind::ConnMgr => 4,
        TraceKind::Buffer => 5,
    }
}

impl Trace {
    /// A trace with all categories enabled and the given record budget.
    /// Once the budget is spent, further emits are counted as dropped —
    /// the equivalent of the paper's care to stay within the IoT-lab
    /// STDIO capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            enabled: [true; 6],
            emitted: 0,
            capacity: capacity as u64,
        }
    }

    /// A trace that counts control-plane emits (link, connection
    /// manager, buffers) but not per-packet PHY/NET/APP ones. The
    /// right default for long experiments.
    pub fn control_plane(capacity: usize) -> Self {
        let mut t = Trace::with_capacity(capacity);
        t.set_enabled(TraceKind::Phy, false);
        t.set_enabled(TraceKind::Net, false);
        t.set_enabled(TraceKind::App, false);
        t
    }

    /// Enable or disable a category.
    pub fn set_enabled(&mut self, kind: TraceKind, on: bool) {
        self.enabled[kind_idx(kind)] = on;
    }

    /// `true` if emits of `kind` count against the budget.
    pub fn is_enabled(&self, kind: TraceKind) -> bool {
        self.enabled[kind_idx(kind)]
    }

    /// Count an event against the budget if its category is enabled.
    /// The event itself is not kept.
    #[inline]
    pub fn emit(&mut self, _at: Instant, _node: NodeId, kind: TraceKind, _tag: &'static str, _detail: u64) {
        if self.enabled[kind_idx(kind)] {
            self.emitted += 1;
        }
    }

    /// Number of enabled emits past the budget.
    pub fn dropped(&self) -> u64 {
        self.emitted.saturating_sub(self.capacity)
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::with_capacity(1 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit(t: &mut Trace, kind: TraceKind, n: usize) {
        for _ in 0..n {
            t.emit(Instant::ZERO, NodeId(1), kind, "x", 0);
        }
    }

    #[test]
    fn disabled_categories_never_count() {
        let mut t = Trace::control_plane(2);
        emit(&mut t, TraceKind::Phy, 5);
        emit(&mut t, TraceKind::Net, 5);
        emit(&mut t, TraceKind::App, 5);
        assert_eq!(t.dropped(), 0);
        // The disabled emits left the whole budget for enabled ones.
        emit(&mut t, TraceKind::Link, 2);
        assert_eq!(t.dropped(), 0);
        emit(&mut t, TraceKind::ConnMgr, 1);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn dropped_counts_emits_past_the_budget() {
        let mut t = Trace::with_capacity(3);
        emit(&mut t, TraceKind::Link, 3);
        assert_eq!(t.dropped(), 0);
        emit(&mut t, TraceKind::Buffer, 4);
        assert_eq!(t.dropped(), 4);
        let mut zero = Trace::with_capacity(0);
        emit(&mut zero, TraceKind::Phy, 2);
        assert_eq!(zero.dropped(), 2);
    }

    #[test]
    fn default_keeps_the_2_pow_20_budget() {
        let mut t = Trace::default();
        emit(&mut t, TraceKind::Link, 1 << 20);
        assert_eq!(t.dropped(), 0);
        emit(&mut t, TraceKind::Link, 1);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn control_plane_preset() {
        let t = Trace::control_plane(8);
        assert!(t.is_enabled(TraceKind::Link));
        assert!(t.is_enabled(TraceKind::ConnMgr));
        assert!(t.is_enabled(TraceKind::Buffer));
        assert!(!t.is_enabled(TraceKind::Phy));
        assert!(!t.is_enabled(TraceKind::Net));
        assert!(!t.is_enabled(TraceKind::App));
    }
}
