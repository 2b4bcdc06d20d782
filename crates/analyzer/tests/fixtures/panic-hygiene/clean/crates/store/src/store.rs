//! Store request paths answer malformed entries with errors, not panics.

pub fn decode(line: &str) -> Result<u64, String> {
    match line.parse::<u64>() {
        Ok(n) => Ok(n),
        Err(e) => Err(format!("corrupt entry: {e}")),
    }
}

pub fn nth(xs: &[u64], i: usize) -> Option<u64> {
    xs.get(i).copied()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let xs = [1u64, 2];
        assert_eq!(super::decode("1").unwrap(), xs[0]);
    }
}
