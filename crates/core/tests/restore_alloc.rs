//! `DekgIlp::restore` holds a checkpoint's config against its stored
//! weights before building a model: a small file whose config declares
//! a large architecture fails with a typed error, having allocated no
//! more than the file itself backs.

use dekg_core::{CheckpointMismatch, DekgIlp, DekgIlpConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Totals the heap bytes requested on the measuring thread.
mod alloc_total {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ARMED: Cell<bool> = const { Cell::new(false) };
        static TOTAL: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        let _ = ARMED.try_with(|armed| {
            if armed.get() {
                let _ = TOTAL.try_with(|total| total.set(total.get().saturating_add(size)));
            }
        });
    }

    /// Delegates to [`System`], adding up request sizes while armed.
    struct Tracking;

    // `GlobalAlloc` is an unsafe trait; this impl only forwards to the
    // system allocator around a thread-local sum.
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

    /// Runs `f`, returning its result and the heap bytes it requested
    /// on this thread.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
        TOTAL.with(|total| total.set(0));
        ARMED.with(|armed| armed.set(true));
        let out = f();
        ARMED.with(|armed| armed.set(false));
        (out, TOTAL.with(Cell::get))
    }
}

/// Reading the file, decoding it into a store and parsing its config
/// each take about the file's length; the floor covers the error value
/// and the small fixed tables.
fn bound(file_len: usize) -> usize {
    3 * file_len + 64 * 1024
}

#[test]
fn a_config_larger_than_its_weights_fails_before_allocating_the_model() {
    let data = dekg_datasets::tiny_fixture(5);
    let cfg = DekgIlpConfig::quick();
    let model = DekgIlp::new(cfg.clone(), &data, &mut ChaCha8Rng::seed_from_u64(0));
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let write = |name: &str, declared: &DekgIlpConfig| {
        let path = dir.join(format!("dekg_restore_alloc_{name}_{tag}.bin"));
        let meta = serde_json::to_string(declared).unwrap();
        std::fs::write(&path, dekg_tensor::serialize::encode(model.params(), meta.as_bytes()))
            .unwrap();
        path.to_string_lossy().into_owned()
    };

    let cases = [
        ("dim", DekgIlpConfig { dim: 1024, ..cfg.clone() }),
        ("attn", DekgIlpConfig { attn_dim: 1 << 20, ..cfg.clone() }),
        ("hops", DekgIlpConfig { hops: 1 << 20, ..cfg.clone() }),
        ("bases", DekgIlpConfig { num_bases: Some(1 << 30), ..cfg.clone() }),
        ("layers", DekgIlpConfig { gnn_layers: 1 << 40, ..cfg.clone() }),
        ("overflow", DekgIlpConfig { gnn_layers: usize::MAX, ..cfg.clone() }),
    ];
    for (name, declared) in cases {
        let path = write(name, &declared);
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        let (result, allocated) = alloc_total::measure(|| DekgIlp::restore(&path, &data));
        let err = result.expect_err(name);
        assert!(err.downcast_ref::<CheckpointMismatch>().is_some(), "{name}: {err}");
        assert!(
            allocated <= bound(file_len),
            "{name}: restoring a {file_len}-byte file allocated {allocated} bytes"
        );
        std::fs::remove_file(&path).ok();
    }

    // The model's own config restores the same file.
    let path = write("ok", &cfg);
    assert!(DekgIlp::restore(&path, &data).is_ok());
    std::fs::remove_file(&path).ok();
}
