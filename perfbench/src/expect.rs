//! Committed expected outputs, one file per workload under `expected/`.
//!
//! A file is a sequence of blocks, each opened by a `[key]` line (the
//! workload seed, or the netlist seed for `netlist_check`) and holding the
//! canonical output text of that input.  `--record` rewrites the blocks of
//! the inputs a run covers and keeps the others.

use std::collections::BTreeMap;
use std::path::PathBuf;

fn path(workload: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected")).join(format!("{workload}.txt"))
}

/// The committed expectations of one workload, by key.
#[derive(Debug, Default)]
pub struct Expected {
    blocks: BTreeMap<u64, String>,
}

impl Expected {
    /// Loads the workload's file; a missing file holds no expectations.
    pub fn load(workload: &str) -> Result<Self, String> {
        let text = match std::fs::read_to_string(path(workload)) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Self::default()),
            Err(e) => return Err(format!("cannot read {}: {e}", path(workload).display())),
        };
        let mut blocks = BTreeMap::new();
        let mut current: Option<(u64, String)> = None;
        for line in text.lines() {
            if let Some(key) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let key = key
                    .parse()
                    .map_err(|_| format!("{}: bad block key {line:?}", workload))?;
                if let Some((k, body)) = current.replace((key, String::new())) {
                    blocks.insert(k, body);
                }
            } else if let Some((_, body)) = current.as_mut() {
                body.push_str(line);
                body.push('\n');
            } else if !line.is_empty() {
                return Err(format!("{workload}: text before the first block key"));
            }
        }
        if let Some((k, body)) = current {
            blocks.insert(k, body);
        }
        Ok(Self { blocks })
    }

    /// The expected text for `key`, if committed.
    pub fn get(&self, key: u64) -> Option<&str> {
        self.blocks.get(&key).map(String::as_str)
    }

    /// Compares `actual` against the expectation for `key`: `Ok(true)` on a
    /// match, `Ok(false)` when nothing is committed for the key.
    pub fn check(&self, key: u64, actual: &str) -> Result<bool, String> {
        match self.get(key) {
            None => Ok(false),
            Some(expected) if expected == actual => Ok(true),
            Some(expected) => Err(format!(
                "output for key {key} differs from the committed expectation\n--- expected\n\
                 {expected}--- actual\n{actual}"
            )),
        }
    }

    /// Replaces the expectation for `key`.
    pub fn insert(&mut self, key: u64, text: String) {
        self.blocks.insert(key, text);
    }

    /// Writes every block back to the workload's file.
    pub fn save(&self, workload: &str) -> Result<(), String> {
        let mut out = String::new();
        for (key, body) in &self.blocks {
            out.push_str(&format!("[{key}]\n{body}"));
        }
        let path = path(workload);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}
