//! Property-based checkpoint roundtrip and decoder fuzzing: arbitrary
//! parameter stores (with arbitrary meta sections) survive
//! encode/decode bit-exactly, and arbitrary or mutated bytes decode to
//! a store or a typed error — never a panic, never a silently partial
//! store, and never an allocation the input does not back.

use dekg_tensor::serialize::{decode, encode, DecodeError};
use dekg_tensor::{ParamStore, Tensor};
use proptest::prelude::*;

/// Records the largest single heap request made on the measuring
/// thread, so a fuzz case can check what the decoder asked for.
mod largest_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ARMED: Cell<bool> = const { Cell::new(false) };
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        let _ = ARMED.try_with(|armed| {
            if armed.get() {
                let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
            }
        });
    }

    /// Delegates to [`System`], noting request sizes while armed.
    struct Tracking;

    // `GlobalAlloc` is an unsafe trait; this impl only forwards to the
    // system allocator around a thread-local maximum.
    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for Tracking {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller's `layout` goes unchanged to `System`,
            // whose `alloc` has this method's contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: as in `alloc`.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: every block came from `System` through this type,
            // so `ptr` and `layout` are what `System` handed out.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            // SAFETY: as in `dealloc`; `new_size` is the caller's,
            // under the same contract.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: Tracking = Tracking;

    /// Runs `f`, returning its result and the largest single allocation
    /// it requested on this thread.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
        LARGEST.with(|largest| largest.set(0));
        ARMED.with(|armed| armed.set(true));
        let out = f();
        ARMED.with(|armed| armed.set(false));
        (out, LARGEST.with(Cell::get))
    }
}

/// The store's own tables (its name and tensor vectors and name index)
/// start at a small fixed capacity whatever the input's length; every
/// other allocation the decoder makes is a name, a shape or a data
/// buffer whose bytes the input holds.
const TABLE_FLOOR: usize = 1024;

/// Decodes `bytes`, requiring a store or a typed error and no single
/// allocation past the input's own length (or the tables' floor).
fn decode_bounded(bytes: &[u8]) -> Result<Result<ParamStore, DecodeError>, TestCaseError> {
    let (result, largest) = largest_alloc::measure(|| decode(bytes).map(|(store, _meta)| store));
    prop_assert!(
        largest <= bytes.len().max(TABLE_FLOOR),
        "decoding {} bytes allocated {largest} at once",
        bytes.len()
    );
    Ok(result)
}

/// Strategy: a store with 0..6 parameters of random small shapes.
fn stores() -> impl Strategy<Value = ParamStore> {
    stores_named("[a-z]{1,12}")
}

/// [`stores`] with names drawn from `names`. The fuzz cases use short
/// names over a tiny alphabet, so one edited byte often makes two equal.
fn stores_named(names: &'static str) -> impl Strategy<Value = ParamStore> {
    prop::collection::vec(
        (
            names,
            prop::collection::vec(1usize..5, 0..3), // dims (rank 0..2)
        ),
        0..6,
    )
    .prop_map(|entries| {
        let mut ps = ParamStore::new();
        let mut used = std::collections::HashSet::new();
        for (i, (name, dims)) in entries.into_iter().enumerate() {
            let name = if used.insert(name.clone()) { name } else { format!("{name}_{i}") };
            let numel: usize = dims.iter().product();
            let data: Vec<f32> = (0..numel).map(|k| (k as f32) * 0.5 - 1.0).collect();
            ps.insert(name, Tensor::from_vec(dims, data));
        }
        ps
    })
}

/// Strategy: a meta section — arbitrary bytes, or a JSON-shaped record
/// like the one a model writes.
fn metas() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..48),
        "\\{\"dim\": [0-9]{1,3}, \"hops\": [0-9]\\}".prop_map(String::into_bytes),
    ]
}

/// One byte-level edit of a buffer; positions wrap modulo its length.
#[derive(Debug, Clone)]
enum Mutation {
    Flip(usize, u8),
    Set(usize, u8),
    Insert(usize, u8),
    Delete(usize),
    /// Copies a short span over another position (count and length
    /// fields copied onto names, data onto headers, …).
    Splice(usize, usize, usize),
}

/// A byte to write: any value, or one of the few that make a length
/// zero or small, a count jump, or a name equal to its neighbour's.
fn edit_bytes() -> impl Strategy<Value = u8> {
    prop_oneof![any::<u8>(), Just(0u8), Just(1), Just(0xff), Just(b'a'), Just(b'b')]
}

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    let one = prop_oneof![
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Mutation::Flip(at, bit)),
        (any::<usize>(), edit_bytes()).prop_map(|(at, b)| Mutation::Set(at, b)),
        (any::<usize>(), edit_bytes()).prop_map(|(at, b)| Mutation::Insert(at, b)),
        any::<usize>().prop_map(Mutation::Delete),
        (any::<usize>(), any::<usize>(), 1usize..9)
            .prop_map(|(from, to, len)| Mutation::Splice(from, to, len)),
    ];
    prop::collection::vec(one, 1..5)
}

fn apply(bytes: &mut Vec<u8>, edit: &Mutation) {
    let n = bytes.len();
    match *edit {
        Mutation::Flip(at, bit) if n > 0 => bytes[at % n] ^= 1 << bit,
        Mutation::Set(at, b) if n > 0 => bytes[at % n] = b,
        Mutation::Insert(at, b) => bytes.insert(at % (n + 1), b),
        Mutation::Delete(at) if n > 0 => {
            bytes.remove(at % n);
        }
        Mutation::Splice(from, to, len) if n > 0 => {
            let from = from % n;
            let span: Vec<u8> = bytes[from..(from + len).min(n)].to_vec();
            let to = to % n;
            let end = (to + span.len()).min(n);
            bytes[to..end].copy_from_slice(&span[..end - to]);
        }
        _ => {}
    }
}

/// The first eight bytes of every version-2 file: magic, then version.
fn header() -> Vec<u8> {
    encode(&ParamStore::new(), b"")[..8].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn roundtrip_is_exact(ps in stores(), meta in metas()) {
        let bytes = encode(&ps, &meta);
        let (back, back_meta) = decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(back_meta, &meta[..]);
        prop_assert_eq!(back.len(), ps.len());
        for (_, name, value) in ps.iter() {
            let id = back.id_of(name).expect("name preserved");
            prop_assert_eq!(back.get(id), value);
        }
    }

    #[test]
    fn truncation_always_detected(ps in stores(), meta in metas(), frac in 0.0f64..1.0) {
        let bytes = encode(&ps, &meta);
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut == bytes.len() {
            return Ok(());
        }
        // Any strict prefix must fail to decode (never a silent
        // partial store) — the format has no trailing slack.
        prop_assert!(decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
    }

    #[test]
    fn appended_bytes_always_rejected(
        ps in stores(),
        meta in metas(),
        tail in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        // A second file or stray bytes after the last record: the
        // declared records parse as before, and what follows is refused.
        let mut bytes = encode(&ps, &meta).to_vec();
        bytes.extend_from_slice(&tail);
        prop_assert_eq!(decode(&bytes).err(), Some(DecodeError::TrailingBytes));
    }

    #[test]
    fn header_bitflips_detected(ps in stores(), byte in 0usize..8, bit in 0u8..8) {
        let mut bytes = encode(&ps, b"").to_vec();
        bytes[byte] ^= 1 << bit;
        // Every magic or version byte is load-bearing.
        prop_assert!(decode(&bytes).is_err(), "flip of byte {byte} bit {bit} decoded");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_bytes_decode_or_fail_typed(
        raw in prop::collection::vec(any::<u8>(), 0..256),
        framing in 0u8..3,
        meta_len in 0u32..16,
    ) {
        // Raw noise rarely passes the magic, so two thirds of the cases
        // carry a valid header (and a meta length) to reach the records.
        let mut bytes = Vec::new();
        if framing > 0 {
            bytes.extend_from_slice(&header());
        }
        if framing > 1 {
            bytes.extend_from_slice(&meta_len.to_le_bytes());
        }
        bytes.extend_from_slice(&raw);
        let _ = decode_bounded(&bytes)?;
    }

    #[test]
    fn mutated_checkpoints_decode_or_fail_typed(
        ps in stores_named("[ab]{1,2}"),
        meta in metas(),
        edits in mutations(),
    ) {
        let mut bytes = encode(&ps, &meta).to_vec();
        for edit in &edits {
            apply(&mut bytes, edit);
        }
        let _ = decode_bounded(&bytes)?;
    }
}
