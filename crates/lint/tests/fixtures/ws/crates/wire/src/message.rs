//! Fixture: a declared hot-path boundary. `decode_verified` builds the
//! owned message by contract, so its allocation is not reported although
//! recv.rs calls it per frame.

pub fn decode_verified(payload: &[u8]) -> Vec<u8> {
    payload.to_vec()
}
