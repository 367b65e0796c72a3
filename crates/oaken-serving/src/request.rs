//! Serving requests.

use serde::{Deserialize, Serialize};

/// One inference request: a prompt of `input_len` tokens that generates
/// `output_len` tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Unique request id.
    pub id: u64,
    /// Prompt length in tokens.
    pub input_len: usize,
    /// Output length in tokens.
    pub output_len: usize,
}

impl Request {
    /// Total sequence length at completion.
    pub fn total_len(&self) -> usize {
        self.input_len + self.output_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_len_adds_both_phases() {
        let r = Request {
            id: 9,
            input_len: 7,
            output_len: 5,
        };
        assert_eq!(r.total_len(), 12);
    }
}
