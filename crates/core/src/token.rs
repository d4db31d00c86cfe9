//! Tokens: the values travelling on latency-insensitive channels.
//!
//! In the formal model of the paper a signal is a sequence of *events*
//! `(v, t)` (value, tag).  Once wire-pipeline elements are inserted, the
//! realisation of a channel also contains *void* symbols `τ` that carry no
//! information.  [`Token`] is the per-cycle value observed on a channel wire:
//! either `Void` (the τ symbol) or `Valid(v)` (an informative event).
//!
//! Tags never travel on the wires: as the paper observes, the ordering
//! property of latency-insensitive channels makes the tag implicit (the k-th
//! valid token on a channel has tag k), so only a validity bit accompanies the
//! data.  Distributed *lag counters* in the shells reconstruct tags when
//! needed (see [`crate::shell`]).

use std::fmt;

/// The per-cycle content of a latency-insensitive channel wire.
///
/// `Token::Void` is the τ symbol of the paper: a cycle in which the channel
/// carries no informative event.  `Token::Valid(v)` carries the payload `v`.
///
/// # Examples
///
/// ```
/// use wp_core::Token;
///
/// let t: Token<u32> = Token::Valid(7);
/// assert!(t.is_valid());
/// assert_eq!(t.as_valid(), Some(&7));
/// assert_eq!(Token::<u32>::Void.as_valid(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Token<V> {
    /// The void symbol τ: no informative event this cycle.
    #[default]
    Void,
    /// An informative event carrying a payload.
    Valid(V),
}

impl<V> Token<V> {
    /// Returns `true` when the token is informative (not τ).
    pub fn is_valid(&self) -> bool {
        matches!(self, Token::Valid(_))
    }

    /// Returns `true` when the token is the void symbol τ.
    pub fn is_void(&self) -> bool {
        matches!(self, Token::Void)
    }

    /// Borrows the payload of a valid token, or `None` for τ.
    pub fn as_valid(&self) -> Option<&V> {
        match self {
            Token::Valid(v) => Some(v),
            Token::Void => None,
        }
    }

    /// Consumes the token and returns its payload, or `None` for τ.
    pub fn into_valid(self) -> Option<V> {
        match self {
            Token::Valid(v) => Some(v),
            Token::Void => None,
        }
    }

    /// Maps the payload of a valid token, leaving τ untouched.
    pub fn map<U, F: FnOnce(V) -> U>(self, f: F) -> Token<U> {
        match self {
            Token::Valid(v) => Token::Valid(f(v)),
            Token::Void => Token::Void,
        }
    }

    /// Replaces the token with τ and returns the previous content.
    pub fn take(&mut self) -> Token<V> {
        std::mem::replace(self, Token::Void)
    }
}

impl<V> From<Option<V>> for Token<V> {
    fn from(opt: Option<V>) -> Self {
        match opt {
            Some(v) => Token::Valid(v),
            None => Token::Void,
        }
    }
}

impl<V> From<Token<V>> for Option<V> {
    fn from(tok: Token<V>) -> Self {
        tok.into_valid()
    }
}

impl<V: fmt::Display> fmt::Display for Token<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Void => write!(f, "τ"),
            Token::Valid(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_token_exposes_payload() {
        let t = Token::Valid(42u32);
        assert!(t.is_valid());
        assert!(!t.is_void());
        assert_eq!(t.as_valid(), Some(&42));
        assert_eq!(t.into_valid(), Some(42));
    }

    #[test]
    fn void_token_has_no_payload() {
        let t: Token<u32> = Token::Void;
        assert!(t.is_void());
        assert_eq!(t.as_valid(), None);
        assert_eq!(t.into_valid(), None);
    }

    #[test]
    fn default_token_is_void() {
        assert_eq!(Token::<u8>::default(), Token::Void);
    }

    #[test]
    fn map_transforms_only_valid() {
        assert_eq!(Token::Valid(3).map(|v| v * 2), Token::Valid(6));
        assert_eq!(Token::<i32>::Void.map(|v| v * 2), Token::Void);
    }

    #[test]
    fn take_leaves_void_behind() {
        let mut t = Token::Valid("x");
        assert_eq!(t.take(), Token::Valid("x"));
        assert_eq!(t, Token::Void);
    }

    #[test]
    fn conversions_with_option_roundtrip() {
        let t: Token<u8> = Some(5).into();
        assert_eq!(t, Token::Valid(5));
        let o: Option<u8> = t.into();
        assert_eq!(o, Some(5));
        let v: Token<u8> = None.into();
        assert_eq!(v, Token::Void);
    }

    #[test]
    fn display_uses_tau_for_void() {
        assert_eq!(format!("{}", Token::<u32>::Void), "τ");
        assert_eq!(format!("{}", Token::Valid(9u32)), "9");
    }
}
