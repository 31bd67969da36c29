//! The named-kernel registry behind the datacenter-tax microbenchmark.
//!
//! "When performance bottlenecks are identified in these functions during
//! full-workload benchmarking, we use these microbenchmarks to pinpoint
//! the problem and guide targeted optimizations" (§3.2). Each
//! [`Microbench`] is a named kernel with a self-contained workload; the
//! harness calls [`Microbench::run`] with an iteration count and gets back
//! the number of abstract operations performed, from which it derives
//! ops/sec.

use crate::{compress, concurrency, crypto, hash, memops, serialize};
use dcperf_util::{Rng, SplitMix64};

/// Tax categories, matching the slices of Figure 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaxCategory {
    /// RPC and serialization.
    Serialization,
    /// Compression and decompression.
    Compression,
    /// Cryptographic hashing/ciphering.
    Crypto,
    /// Non-cryptographic hashing.
    Hashing,
    /// Memory copies and fills.
    Memory,
    /// Locks, atomics, queues.
    ThreadManager,
}

impl std::fmt::Display for TaxCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TaxCategory::Serialization => "serialization",
            TaxCategory::Compression => "compression",
            TaxCategory::Crypto => "crypto",
            TaxCategory::Hashing => "hashing",
            TaxCategory::Memory => "memory",
            TaxCategory::ThreadManager => "thread-manager",
        };
        f.write_str(s)
    }
}

/// A single named kernel.
pub struct Microbench {
    name: &'static str,
    category: TaxCategory,
    runner: Box<dyn Fn(u64) -> u64 + Send + Sync>,
}

impl std::fmt::Debug for Microbench {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Microbench")
            .field("name", &self.name)
            .field("category", &self.category)
            .finish()
    }
}

impl Microbench {
    /// Kernel name, e.g. `"compress/lz"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Tax category the kernel belongs to.
    pub fn category(&self) -> TaxCategory {
        self.category
    }

    /// Runs `iters` iterations, returning abstract operations performed
    /// (bytes processed or calls completed, kernel-defined but stable).
    pub fn run(&self, iters: u64) -> u64 {
        (self.runner)(iters)
    }
}

/// The registry of all built-in kernels.
#[derive(Debug, Default)]
pub struct Registry {
    benches: Vec<Microbench>,
}

impl Registry {
    /// Builds the registry with every built-in kernel.
    pub fn with_builtin() -> Self {
        let mut r = Self {
            benches: Vec::new(),
        };
        r.register_builtin();
        r
    }

    /// All kernels.
    pub fn iter(&self) -> impl Iterator<Item = &Microbench> {
        self.benches.iter()
    }

    /// Looks up a kernel by name.
    pub fn get(&self, name: &str) -> Option<&Microbench> {
        self.benches.iter().find(|b| b.name == name)
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.benches.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.benches.is_empty()
    }

    fn add(
        &mut self,
        name: &'static str,
        category: TaxCategory,
        runner: impl Fn(u64) -> u64 + Send + Sync + 'static,
    ) {
        self.benches.push(Microbench {
            name,
            category,
            runner: Box::new(runner),
        });
    }

    fn register_builtin(&mut self) {
        // A shared corpus shaped like serialized production objects.
        fn corpus(len: usize, seed: u64) -> Vec<u8> {
            let mut rng = SplitMix64::new(seed);
            let mut data = Vec::with_capacity(len);
            while data.len() < len {
                let run = (rng.next_u64() % 24 + 4) as usize;
                let byte = (rng.next_u64() % 64 + 32) as u8;
                data.extend(std::iter::repeat_n(byte, run.min(len - data.len())));
            }
            data
        }

        self.add("compress/lz", TaxCategory::Compression, |iters| {
            let data = corpus(16 << 10, 1);
            let mut bytes = 0u64;
            for _ in 0..iters {
                let packed = compress::lz_compress(&data);
                bytes += data.len() as u64;
                std::hint::black_box(&packed);
            }
            bytes
        });

        // The decode kernels time decoding only: their input is encoded
        // once, here, not inside the timed closure.
        let packed = compress::lz_compress(&corpus(16 << 10, 2));
        self.add(
            "compress/lz_decompress",
            TaxCategory::Compression,
            move |iters| {
                let mut bytes = 0u64;
                for _ in 0..iters {
                    let out = compress::lz_decompress(&packed).expect("own stream decodes");
                    bytes += out.len() as u64;
                    std::hint::black_box(&out);
                }
                bytes
            },
        );

        self.add("compress/rle", TaxCategory::Compression, |iters| {
            let data = corpus(16 << 10, 3);
            let mut bytes = 0u64;
            for _ in 0..iters {
                let packed = compress::rle_compress(&data);
                bytes += data.len() as u64;
                std::hint::black_box(&packed);
            }
            bytes
        });

        self.add("crypto/sha256", TaxCategory::Crypto, |iters| {
            let data = corpus(4 << 10, 4);
            let mut bytes = 0u64;
            for _ in 0..iters {
                let digest = crypto::Sha256::digest(&data);
                bytes += data.len() as u64;
                std::hint::black_box(&digest);
            }
            bytes
        });

        self.add("crypto/hmac", TaxCategory::Crypto, |iters| {
            let data = corpus(1 << 10, 5);
            let mut bytes = 0u64;
            for i in 0..iters {
                let mac = crypto::hmac_sha256(&i.to_le_bytes(), &data);
                bytes += data.len() as u64;
                std::hint::black_box(&mac);
            }
            bytes
        });

        self.add("crypto/chacha20", TaxCategory::Crypto, |iters| {
            let mut data = corpus(8 << 10, 6);
            let key = [0x42u8; 32];
            let nonce = [0x24u8; 12];
            let mut bytes = 0u64;
            for i in 0..iters {
                crypto::ChaCha20::new(&key, &nonce, i as u32).apply(&mut data);
                bytes += data.len() as u64;
            }
            std::hint::black_box(&data);
            bytes
        });

        self.add("hash/fnv1a", TaxCategory::Hashing, |iters| {
            let keys: Vec<Vec<u8>> = (0..256u64)
                .map(|i| format!("object:{i}:fbid").into_bytes())
                .collect();
            let mut ops = 0u64;
            for _ in 0..iters {
                for key in &keys {
                    std::hint::black_box(hash::fnv1a(key));
                    ops += 1;
                }
            }
            ops
        });

        self.add("hash/dcx64", TaxCategory::Hashing, |iters| {
            let data = corpus(4 << 10, 7);
            let mut bytes = 0u64;
            for i in 0..iters {
                std::hint::black_box(hash::dcx64(&data, i));
                bytes += data.len() as u64;
            }
            bytes
        });

        self.add("hash/crc32", TaxCategory::Hashing, |iters| {
            let data = corpus(4 << 10, 8);
            let mut bytes = 0u64;
            for _ in 0..iters {
                std::hint::black_box(hash::crc32(&data));
                bytes += data.len() as u64;
            }
            bytes
        });

        self.add("serialize/encode", TaxCategory::Serialization, |iters| {
            let records: Vec<serialize::Record> = (0..64i64)
                .map(|i| {
                    vec![
                        serialize::FieldValue::I64(i * 31337),
                        serialize::FieldValue::F64(i as f64 * 0.5),
                        serialize::FieldValue::Str(format!("row-{i}-payload")),
                    ]
                })
                .collect();
            let mut ops = 0u64;
            let mut buf = Vec::new();
            for _ in 0..iters {
                buf.clear();
                serialize::encode_batch(&records, &mut buf);
                std::hint::black_box(&buf);
                ops += records.len() as u64;
            }
            ops
        });

        let records: Vec<serialize::Record> = (0..64i64)
            .map(|i| {
                vec![
                    serialize::FieldValue::I64(i),
                    serialize::FieldValue::Str(format!("row-{i}")),
                ]
            })
            .collect();
        let mut buf = Vec::new();
        serialize::encode_batch(&records, &mut buf);
        self.add(
            "serialize/decode",
            TaxCategory::Serialization,
            move |iters| {
                let mut ops = 0u64;
                for _ in 0..iters {
                    let (decoded, _) = serialize::decode_batch(&buf).expect("own batch decodes");
                    ops += decoded.len() as u64;
                    std::hint::black_box(&decoded);
                }
                ops
            },
        );

        self.add("memory/copy", TaxCategory::Memory, |iters| {
            let src = corpus(64 << 10, 9);
            let mut dst = vec![0u8; src.len()];
            std::hint::black_box(memops::copy_sequential(&src, &mut dst, iters as usize));
            iters * src.len() as u64
        });

        self.add("memory/gather", TaxCategory::Memory, |iters| {
            let src = corpus(1 << 20, 10);
            let count = 4096usize;
            let mut acc = 0u64;
            for i in 0..iters {
                acc ^= memops::gather_random(&src, count, i);
            }
            std::hint::black_box(acc);
            iters * count as u64
        });

        self.add("memory/pointer_chase", TaxCategory::Memory, |iters| {
            let steps = 4096usize;
            let mut acc = 0u64;
            for i in 0..iters {
                acc ^= memops::pointer_chase(1 << 16, steps, i);
            }
            std::hint::black_box(acc);
            iters * steps as u64
        });

        self.add(
            "thread/atomic_counter",
            TaxCategory::ThreadManager,
            |iters| concurrency::contended_atomic_counter(4, iters * 256),
        );

        self.add("thread/queue", TaxCategory::ThreadManager, |iters| {
            concurrency::queue_throughput(2, iters * 256)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_is_populated() {
        let r = Registry::with_builtin();
        assert!(r.len() >= 14, "only {} kernels", r.len());
        // Every Figure-12 category is represented.
        for cat in [
            TaxCategory::Serialization,
            TaxCategory::Compression,
            TaxCategory::Crypto,
            TaxCategory::Hashing,
            TaxCategory::Memory,
            TaxCategory::ThreadManager,
        ] {
            assert!(r.iter().any(|b| b.category() == cat), "no kernel for {cat}");
        }
    }

    #[test]
    fn names_are_unique() {
        let r = Registry::with_builtin();
        let mut names: Vec<&str> = r.iter().map(|b| b.name()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn every_kernel_runs_and_reports_ops() {
        let r = Registry::with_builtin();
        for bench in r.iter() {
            let ops = bench.run(2);
            assert!(ops > 0, "{} reported zero ops", bench.name());
        }
    }

    #[test]
    fn lookup_by_name() {
        let r = Registry::with_builtin();
        assert!(r.get("compress/lz").is_some());
        assert!(r.get("no/such").is_none());
    }

    #[test]
    fn ops_scale_with_iters() {
        let r = Registry::with_builtin();
        let b = r.get("crypto/sha256").unwrap();
        assert_eq!(b.run(4), 2 * b.run(2));
    }
}
