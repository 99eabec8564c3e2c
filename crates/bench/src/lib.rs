//! Shared helpers for the experiment benches (see EXPERIMENTS.md).

#![forbid(unsafe_code)]

pub mod loadgen;
pub mod overload;

use jaap_coalition::scenario::{Coalition, CoalitionBuilder};

/// Builds the standard Figure 1 coalition used across benches.
///
/// # Panics
///
/// Panics if construction fails (benches treat that as fatal).
#[must_use]
pub fn standard_coalition(key_bits: usize, seed: u64) -> Coalition {
    CoalitionBuilder::new()
        .domains(&["D1", "D2", "D3"])
        .key_bits(key_bits)
        .seed(seed)
        .build()
        .expect("coalition construction")
}

/// Builds a coalition with `n` domains and the given write threshold.
///
/// # Panics
///
/// Panics if construction fails.
#[must_use]
pub fn coalition_of(n: usize, write_threshold: usize, key_bits: usize, seed: u64) -> Coalition {
    let names: Vec<String> = (1..=n).map(|i| format!("D{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    CoalitionBuilder::new()
        .domains(&refs)
        .write_threshold(write_threshold)
        .key_bits(key_bits)
        .seed(seed)
        .build()
        .expect("coalition construction")
}

/// Prints a markdown-ish table header used by the experiment tables.
pub fn table_header(title: &str, columns: &[&str]) {
    println!("\n### {title}");
    println!("{}", columns.join(" | "));
    println!(
        "{}",
        columns
            .iter()
            .map(|_| "---")
            .collect::<Vec<_>>()
            .join(" | ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build() {
        let mut c = standard_coalition(192, 1);
        assert!(c.request_read(&["User_D1"]).expect("read").granted);
        let c5 = coalition_of(5, 3, 192, 2);
        assert_eq!(c5.domains().len(), 5);
    }
}
