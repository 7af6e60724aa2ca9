//! Fixture: steady-state receive path (hot-path-alloc + panic-path scope).

pub fn per_frame(payload: &[u8], scratch: &mut [u8]) {
    let copy = payload.to_vec();
    let mut frames: Vec<u8> = Vec::new();
    scratch.copy_from_slice(&copy);
    let sized: Vec<u8> = Vec::with_capacity(copy.len());
    frames.extend_from_slice(&copy);
    let tag = decode_extra(payload);
    stage_remainder(payload, tag);
    decode_verified(payload);
}

pub fn setup() -> Vec<u8> {
    // lint:allow(hot-path-alloc): one-time setup buffer, not per frame
    Vec::new()
}

#[cfg(test)]
mod tests {
    #[test]
    fn alloc_in_tests_is_fine() {
        let v = b"frame".to_vec();
        assert_eq!(v.len(), 5);
    }
}
