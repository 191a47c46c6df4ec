//! Correctness accounting: every checked call is one operation; a
//! mismatch, a failed assertion or a panic counts it as failed.

use std::panic::{catch_unwind, AssertUnwindSafe};

#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Run one checked operation. Returns its value, or `None` when
    /// the check failed or the call panicked (reported on stderr).
    pub fn run<R>(&mut self, what: &str, f: impl FnOnce() -> Result<R, String>) -> Option<R> {
        self.attempted += 1;
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(r)) => return Some(r),
            Ok(Err(e)) => e,
            Err(p) => {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string payload".into());
                format!("panic: {msg}")
            }
        };
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}: {err}");
        None
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Byte-compare a serialized result with its reference.
pub fn same_bytes(what: &str, expected: &[u8], got: &[u8]) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at = expected
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    Err(format!(
        "{what}: bytes differ from the reference at offset {at} (lengths {} vs {})",
        expected.len(),
        got.len()
    ))
}

/// Pass `ok`, or fail with `msg`.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_bytes_pass() {
        let mut ops = Ops::default();
        let r = ops.run("same", || same_bytes("r", b"{\"a\": 1}", b"{\"a\": 1}"));
        assert_eq!(r, Some(()));
        assert_eq!((ops.attempted, ops.failed), (1, 0));
        assert!(ops.correct());
    }

    #[test]
    fn tampered_result_byte_is_a_failed_operation() {
        let reference = b"{\n  \"events_total\": 3739297\n}".to_vec();
        let mut tampered = reference.clone();
        tampered[20] ^= 1;
        let mut ops = Ops::default();
        ops.run("clean", || same_bytes("r", &reference, &reference));
        let r = ops.run("tampered", || same_bytes("r", &reference, &tampered));
        assert_eq!(r, None);
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert!(!ops.correct());
        let err = same_bytes("r", &reference, &tampered).unwrap_err();
        assert!(err.contains("offset 20"), "{err}");
    }

    #[test]
    fn truncated_result_is_a_failed_operation() {
        let err = same_bytes("r", b"abc", b"ab").unwrap_err();
        assert!(err.contains("offset 2"), "{err}");
    }

    #[test]
    fn panic_and_failed_assertion_count_as_failed() {
        let mut ops = Ops::default();
        ops.run("panics", || -> Result<(), String> { panic!("boom") });
        ops.run("slo", || {
            ensure(0.5 >= 0.98, || "survival below 0.98".into())
        });
        assert_eq!((ops.attempted, ops.failed), (2, 2));
    }

    #[test]
    fn no_operation_is_not_correct() {
        assert!(!Ops::default().correct());
    }
}
