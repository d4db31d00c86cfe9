//! The lexer of the workspace's hand-rolled line-oriented text format.
//!
//! The netlist description language of `wp_spec` (`*.nl`) is a plain-text
//! format in this house style: one directive per line, blank lines and `#`
//! comments ignored, whitespace-separated fields with double-quoted values,
//! and trailing `key=value` attribute lists.  The workspace builds without
//! registry access (no serde, no lexer generators), so this crate holds the
//! hand-rolled tokenizer:
//!
//! * [`directive_lines`] — the line iterator (1-based numbers, comments and
//!   blanks skipped);
//! * [`split_fields`] — whitespace splitting that honours double quotes;
//! * [`Pairs`] — a parsed `key=value` attribute list with duplicate-key
//!   detection and `take`-style consumption.
//!
//! Errors are plain `String` messages without positions: the caller owns the
//! line numbers (`wp_spec` wraps messages into its line-numbered
//! `SpecError::Parse`).

#![warn(missing_docs)]

/// Iterates over the directive lines of a text: every line that is neither
/// blank nor a `#` comment, trimmed, with its 1-based line number.
///
/// # Examples
///
/// ```
/// let lines: Vec<_> = wp_lex::directive_lines("# header\n\na b\n").collect();
/// assert_eq!(lines, [(3, "a b")]);
/// ```
pub fn directive_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, raw)| (i + 1, raw.trim()))
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
}

/// Splits a line into whitespace-separated fields, honouring double quotes
/// (`prefix="exit 1 #"` is one field with the quotes stripped).  Returns a
/// message (no line number — the caller attaches it) on an unterminated
/// quote.
///
/// # Errors
///
/// Returns `Err` with a human-readable message when a `"` quote is left
/// unterminated at the end of the line.
pub fn split_fields(line: &str) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut has_field = false;
    for c in line.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                has_field = true;
            }
            c if c.is_whitespace() && !in_quotes => {
                if has_field {
                    fields.push(std::mem::take(&mut current));
                    has_field = false;
                }
            }
            c => {
                current.push(c);
                has_field = true;
            }
        }
    }
    if in_quotes {
        return Err("unterminated '\"' quote".to_string());
    }
    if has_field {
        fields.push(current);
    }
    Ok(fields)
}

/// A parsed `key=value` attribute list: the trailing fields of a directive
/// line, each split at its first `=`, with duplicate keys rejected.
///
/// Consumers pull the keys they understand with [`Pairs::take`]; whatever
/// remains afterwards is unknown and can be rejected with a caller-specific
/// message via [`Pairs::first_key`] (or kept verbatim via
/// [`Pairs::into_inner`] for formats with open attribute sets).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pairs {
    pairs: Vec<(String, String)>,
}

impl Pairs {
    /// Parses `key=value` tokens (as produced by [`split_fields`]) into a
    /// pair list, preserving order.
    ///
    /// # Errors
    ///
    /// Returns a message (no line number — the caller attaches it) for a
    /// token without `=` or a duplicate key.
    pub fn parse(tokens: &[String]) -> Result<Self, String> {
        let mut pairs: Vec<(String, String)> = Vec::with_capacity(tokens.len());
        for token in tokens {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{token}'"))?;
            if pairs.iter().any(|(k, _)| k == key) {
                return Err(format!("duplicate key '{key}'"));
            }
            pairs.push((key.to_string(), value.to_string()));
        }
        Ok(Self { pairs })
    }

    /// Removes and returns the value of `key`, or `None` when absent.
    pub fn take(&mut self, key: &str) -> Option<String> {
        self.pairs
            .iter()
            .position(|(k, _)| k == key)
            .map(|i| self.pairs.remove(i).1)
    }

    /// The first remaining (not yet taken) key, if any — the caller's hook
    /// for an "unknown key" rejection with its own wording.
    pub fn first_key(&self) -> Option<&str> {
        self.pairs.first().map(|(k, _)| k.as_str())
    }

    /// Number of remaining pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when every pair has been taken.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Consumes the list, returning the remaining pairs in order (for
    /// formats whose attribute set is open, e.g. netlist block attributes
    /// interpreted by a block registry).
    pub fn into_inner(self) -> Vec<(String, String)> {
        self.pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields(line: &str) -> Vec<String> {
        split_fields(line).expect("splits")
    }

    #[test]
    fn directive_lines_skip_comments_and_blanks_and_number_from_one() {
        let text = "# header\n\n  a 1\n\t\n# mid\nb 2";
        let lines: Vec<_> = directive_lines(text).collect();
        assert_eq!(lines, [(3, "a 1"), (6, "b 2")]);
        assert_eq!(directive_lines("").count(), 0);
    }

    #[test]
    fn split_fields_honours_quotes_and_rejects_unterminated_ones() {
        assert_eq!(fields("a  b\tc"), ["a", "b", "c"]);
        assert_eq!(fields("p=\"x y\" q=1"), ["p=x y", "q=1"]);
        assert_eq!(fields("\"\""), [""]);
        let err = split_fields("p=\"oops").unwrap_err();
        assert!(err.contains("unterminated"), "{err}");
    }

    #[test]
    fn pairs_parse_take_and_reject_duplicates() {
        let mut pairs = Pairs::parse(&fields("a=1 b=two c=")).expect("parses");
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs.take("b").as_deref(), Some("two"));
        assert_eq!(pairs.take("b"), None);
        assert_eq!(pairs.take("c").as_deref(), Some(""));
        assert_eq!(pairs.first_key(), Some("a"));
        assert_eq!(pairs.into_inner(), [("a".to_string(), "1".to_string())]);

        let err = Pairs::parse(&fields("a=1 naked")).unwrap_err();
        assert!(err.contains("expected key=value, got 'naked'"), "{err}");
        let err = Pairs::parse(&fields("a=1 a=2")).unwrap_err();
        assert!(err.contains("duplicate key 'a'"), "{err}");
    }
}
