//! Lock requests: access modes, states and tokens.

/// How a task intends to access a location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Shared access: adjacent read requests are granted together.
    Read,
    /// Exclusive access.
    Write,
}

/// Lifecycle of a request inside a location's FIFO, as in the ORWL model:
/// `requested → allocated → released`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RequestState {
    /// Posted, waiting for its turn.
    Requested,
    /// Granted: the owner may access the data.
    Allocated,
    /// Finished; the slot will be garbage-collected from the FIFO.
    Released,
}

/// A token identifying one posted request.  Tokens are cheap to copy and
/// only meaningful for the FIFO that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RequestToken {
    seq: u64,
    mode: AccessMode,
}

impl RequestToken {
    pub(crate) fn new(seq: u64, mode: AccessMode) -> Self {
        RequestToken { seq, mode }
    }

    /// Position counter assigned at insertion (monotonically increasing per
    /// FIFO).
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// Access mode the request was posted with.
    pub(crate) fn mode(&self) -> AccessMode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_accessors() {
        let t = RequestToken::new(42, AccessMode::Read);
        assert_eq!(t.seq(), 42);
        assert_eq!(t.mode(), AccessMode::Read);
        let copy = t;
        assert_eq!(copy, t);
    }

    #[test]
    fn state_transitions_are_distinct() {
        assert_ne!(RequestState::Requested, RequestState::Allocated);
        assert_ne!(RequestState::Allocated, RequestState::Released);
    }
}
