//! Output digests pinned in `perfbench/pins.txt`: one `key digest` pair
//! per line, `#` starting a comment.

use std::collections::BTreeMap;

const PINS: &str = "perfbench/pins.txt";

pub struct Pins(BTreeMap<String, String>);

impl Pins {
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string(PINS).map_err(|e| format!("read {PINS}: {e}"))?;
        let mut pins = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, digest) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("{PINS}:{}: expected `key digest`", n + 1))?;
            pins.insert(key.to_string(), digest.trim().to_string());
        }
        Ok(Pins(pins))
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }
}
