//! VideoTranscodeBench: the media-processing benchmark.
//!
//! "At the beginning of benchmarking, each CPU core is utilized by one
//! ffmpeg instance to (1) resize a video clip into multiple resolutions
//! and (2) encode the resized video clip with the specified video encoder.
//! This benchmark is embarrassingly parallel and can push CPU utilization
//! to more than 95%." (§3.2)
//!
//! The transcoding pipeline here is a real (if small) encoder: synthetic
//! luma frames are resized through a bilinear ladder, then encoded with
//! the classic block pipeline — 8×8 integer DCT, quantization, zigzag
//! scan, RLE of the trailing zeros, and entropy coding via the workspace
//! LZ compressor. One instance runs per logical core, exactly as the
//! paper spawns one ffmpeg per core.

use dcperf_core::{Benchmark, BenchmarkReport, Error, ReportBuilder, RunContext, WorkloadCategory};
use dcperf_tax::compress;
use dcperf_util::{Rng, SplitMix64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One grayscale frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Row-major luma samples.
    pub pixels: Vec<u8>,
}

impl Frame {
    /// Generates a synthetic frame: smooth gradients plus moving texture
    /// plus film grain — content with both low- and high-frequency energy
    /// so the DCT pipeline does real work.
    pub fn synthetic(width: usize, height: usize, frame_index: u64, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ frame_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut pixels = Vec::with_capacity(width * height);
        let phase = frame_index as f64 * 0.15;
        for y in 0..height {
            for x in 0..width {
                let gradient = (x as f64 / width as f64) * 90.0 + (y as f64 / height as f64) * 60.0;
                let texture =
                    ((x as f64 * 0.30 + phase).sin() * (y as f64 * 0.22 - phase).cos()) * 40.0;
                let grain = (rng.next_u64() % 11) as f64 - 5.0;
                pixels.push((gradient + texture + grain + 60.0).clamp(0.0, 255.0) as u8);
            }
        }
        Self {
            width,
            height,
            pixels,
        }
    }

    /// Bilinear resize to `(new_width, new_height)`.
    ///
    /// # Panics
    ///
    /// Panics if either target dimension is zero.
    pub fn resize(&self, new_width: usize, new_height: usize) -> Frame {
        assert!(
            new_width > 0 && new_height > 0,
            "resize target must be non-zero"
        );
        let mut pixels = Vec::with_capacity(new_width * new_height);
        let x_ratio = self.width as f64 / new_width as f64;
        let y_ratio = self.height as f64 / new_height as f64;
        for y in 0..new_height {
            let sy = (y as f64 + 0.5) * y_ratio - 0.5;
            let y0 = sy.floor().clamp(0.0, (self.height - 1) as f64) as usize;
            let y1 = (y0 + 1).min(self.height - 1);
            let fy = (sy - y0 as f64).clamp(0.0, 1.0);
            for x in 0..new_width {
                let sx = (x as f64 + 0.5) * x_ratio - 0.5;
                let x0 = sx.floor().clamp(0.0, (self.width - 1) as f64) as usize;
                let x1 = (x0 + 1).min(self.width - 1);
                let fx = (sx - x0 as f64).clamp(0.0, 1.0);
                let p00 = self.pixels[y0 * self.width + x0] as f64;
                let p01 = self.pixels[y0 * self.width + x1] as f64;
                let p10 = self.pixels[y1 * self.width + x0] as f64;
                let p11 = self.pixels[y1 * self.width + x1] as f64;
                let top = p00 + (p01 - p00) * fx;
                let bottom = p10 + (p11 - p10) * fx;
                pixels.push((top + (bottom - top) * fy).round().clamp(0.0, 255.0) as u8);
            }
        }
        Frame {
            width: new_width,
            height: new_height,
            pixels,
        }
    }
}

/// The 8×8 forward DCT (floating-point reference implementation).
fn dct8x8(block: &[f64; 64]) -> [f64; 64] {
    let mut out = [0f64; 64];
    for v in 0..8 {
        for u in 0..8 {
            let cu = if u == 0 {
                1.0 / std::f64::consts::SQRT_2
            } else {
                1.0
            };
            let cv = if v == 0 {
                1.0 / std::f64::consts::SQRT_2
            } else {
                1.0
            };
            let mut sum = 0.0;
            for y in 0..8 {
                for x in 0..8 {
                    sum += block[y * 8 + x]
                        * ((2 * x + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos()
                        * ((2 * y + 1) as f64 * v as f64 * std::f64::consts::PI / 16.0).cos();
                }
            }
            out[v * 8 + u] = 0.25 * cu * cv * sum;
        }
    }
    out
}

/// JPEG-style luma quantization table, scaled by quality.
const QUANT_BASE: [i32; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55, 14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62, 18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113,
    92, 49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
];

/// Zigzag scan order for 8×8 blocks.
fn zigzag_order() -> [usize; 64] {
    let mut order = [0usize; 64];
    let (mut x, mut y) = (0i32, 0i32);
    let mut up = true;
    for slot in order.iter_mut() {
        *slot = (y * 8 + x) as usize;
        if up {
            if x == 7 {
                y += 1;
                up = false;
            } else if y == 0 {
                x += 1;
                up = false;
            } else {
                x += 1;
                y -= 1;
            }
        } else if y == 7 {
            x += 1;
            up = true;
        } else if x == 0 {
            y += 1;
            up = true;
        } else {
            x -= 1;
            y += 1;
        }
    }
    order
}

/// The quantizer scale: the balanced configuration of Figure 10's three
/// VideoBench settings (fast quantizes 4× coarser than the base table,
/// high quality 1×).
const QUANT_SCALE: i32 = 2;

/// Encodes one frame; returns the compressed bitstream.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let zigzag = zigzag_order();
    let blocks_x = frame.width / 8;
    let blocks_y = frame.height / 8;
    let mut coefficients = Vec::with_capacity(blocks_x * blocks_y * 24);
    let mut block = [0f64; 64];
    for by in 0..blocks_y {
        for bx in 0..blocks_x {
            for y in 0..8 {
                for x in 0..8 {
                    block[y * 8 + x] =
                        frame.pixels[(by * 8 + y) * frame.width + bx * 8 + x] as f64 - 128.0;
                }
            }
            let freq = dct8x8(&block);
            // Quantize and zigzag; RLE the zero runs.
            let mut zero_run = 0u32;
            for &idx in &zigzag {
                let q = (freq[idx] / (QUANT_BASE[idx] * QUANT_SCALE) as f64).round() as i32;
                if q == 0 {
                    zero_run += 1;
                } else {
                    coefficients.push(0x80); // run marker
                    coefficients.extend_from_slice(&zero_run.to_le_bytes()[..2]);
                    coefficients.extend_from_slice(&q.to_le_bytes()[..2]);
                    zero_run = 0;
                }
            }
            coefficients.push(0xFF); // end of block
            coefficients.extend_from_slice(&zero_run.to_le_bytes()[..2]);
        }
    }
    // Entropy coding of the coefficient stream.
    compress::lz_compress(&coefficients)
}

/// Source resolution, width.
const WIDTH: usize = 320;
/// Source resolution, height.
const HEIGHT: usize = 180;
/// Frames per instance at smoke scale (scaled by the run scale, up to
/// 16×).
const BASE_FRAMES: u64 = 3;
/// Output resolutions of the resize ladder.
const LADDER: [(usize, usize); 2] = [(240, 136), (160, 88)];

/// The VideoTranscodeBench benchmark. See the [module docs](self).
#[derive(Debug, Default)]
pub struct VideoTranscodeBench;

impl Benchmark for VideoTranscodeBench {
    fn name(&self) -> &str {
        "video_transcode_bench"
    }

    fn category(&self) -> WorkloadCategory {
        WorkloadCategory::MediaProcessing
    }

    fn description(&self) -> &str {
        "per-core parallel transcode: bilinear resize ladder + 8x8 DCT block encoder"
    }

    fn score_metric(&self) -> &str {
        "megapixels_per_second"
    }

    fn run(&self, ctx: &mut RunContext) -> Result<BenchmarkReport, Error> {
        let scale = ctx.config().scale.factor();
        let instances = ctx.config().effective_threads();
        let seed = ctx.seed();
        let frames_per_instance = BASE_FRAMES * scale.min(16);

        let pixels_done = AtomicU64::new(0);
        let bytes_out = AtomicU64::new(0);
        let bytes_in = AtomicU64::new(0);
        let started = Instant::now();

        std::thread::scope(|scope| {
            for instance in 0..instances {
                let pixels_done = &pixels_done;
                let bytes_out = &bytes_out;
                let bytes_in = &bytes_in;
                scope.spawn(move || {
                    let instance_seed = seed ^ (instance as u64) << 32;
                    for f in 0..frames_per_instance {
                        let frame = Frame::synthetic(WIDTH, HEIGHT, f, instance_seed);
                        bytes_in.fetch_add(frame.pixels.len() as u64, Ordering::Relaxed);
                        // (1) resize into multiple resolutions,
                        // (2) encode each rendition.
                        for (w, h) in LADDER {
                            let resized = frame.resize(w, h);
                            let bitstream = encode_frame(&resized);
                            pixels_done.fetch_add(resized.pixels.len() as u64, Ordering::Relaxed);
                            bytes_out.fetch_add(bitstream.len() as u64, Ordering::Relaxed);
                            std::hint::black_box(&bitstream);
                        }
                    }
                });
            }
        });

        let elapsed = started.elapsed().as_secs_f64();
        let megapixels = pixels_done.load(Ordering::Relaxed) as f64 / 1e6;
        let out = bytes_out.load(Ordering::Relaxed);
        let raw = pixels_done.load(Ordering::Relaxed);

        let mut report = ReportBuilder::new(self.name());
        report.param("instances", instances as u64);
        report.param("frames_per_instance", frames_per_instance);
        report.param("source", format!("{WIDTH}x{HEIGHT}"));
        report.param("renditions", LADDER.len() as u64);
        report.metric("megapixels_per_second", megapixels / elapsed.max(1e-9));
        report.metric("frames_encoded", frames_per_instance * instances as u64);
        report.metric("bitstream_bytes", out);
        report.metric("compression_ratio", raw as f64 / out.max(1) as f64);
        report.metric("elapsed_seconds", elapsed);
        Ok(report.finish(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcperf_core::RunConfig;

    #[test]
    fn synthetic_frames_are_deterministic() {
        let a = Frame::synthetic(64, 32, 3, 9);
        let b = Frame::synthetic(64, 32, 3, 9);
        assert_eq!(a, b);
        assert_ne!(Frame::synthetic(64, 32, 4, 9), a);
        assert_eq!(a.pixels.len(), 64 * 32);
    }

    #[test]
    fn resize_preserves_smooth_content() {
        // A constant frame resizes to the same constant.
        let flat = Frame {
            width: 32,
            height: 32,
            pixels: vec![100u8; 32 * 32],
        };
        let small = flat.resize(16, 16);
        assert!(small.pixels.iter().all(|&p| (99..=101).contains(&p)));
        assert_eq!(small.width, 16);
        assert_eq!(small.height, 16);
    }

    #[test]
    fn resize_downscales_gradient_monotonically() {
        let mut pixels = Vec::new();
        for _y in 0..32 {
            for x in 0..64u32 {
                pixels.push((x * 4) as u8);
            }
        }
        let frame = Frame {
            width: 64,
            height: 32,
            pixels,
        };
        let small = frame.resize(32, 16);
        for y in 0..16 {
            for x in 1..32 {
                assert!(
                    small.pixels[y * 32 + x] >= small.pixels[y * 32 + x - 1],
                    "row {y} not monotone at {x}"
                );
            }
        }
    }

    #[test]
    fn dct_dc_coefficient_matches_block_mean() {
        let block = [64.0f64; 64];
        let freq = dct8x8(&block);
        // DC = 8 × mean for the orthonormal scaling used here.
        assert!((freq[0] - 512.0).abs() < 1e-6, "DC={}", freq[0]);
        // All AC terms vanish for a flat block.
        assert!(freq[1..].iter().all(|&c| c.abs() < 1e-6));
    }

    #[test]
    fn zigzag_is_a_permutation() {
        let order = zigzag_order();
        let mut seen = [false; 64];
        for &idx in &order {
            assert!(!seen[idx]);
            seen[idx] = true;
        }
        assert_eq!(order[0], 0);
        assert_eq!(order[1], 1); // (x=1, y=0)
        assert_eq!(order[2], 8); // (x=0, y=1)
        assert_eq!(order[63], 63);
    }

    #[test]
    fn encoder_compresses_synthetic_video() {
        let frame = Frame::synthetic(64, 64, 0, 5);
        let bitstream = encode_frame(&frame);
        assert!(
            bitstream.len() < frame.pixels.len() * 2,
            "encoded {} raw {}",
            bitstream.len(),
            frame.pixels.len()
        );
        assert!(!bitstream.is_empty());
    }

    #[test]
    fn smoke_run_reports_throughput() {
        let mut ctx = RunContext::new(
            RunConfig {
                threads: Some(4),
                ..RunConfig::smoke_test()
            },
            "video_transcode_bench",
        );
        let report = VideoTranscodeBench.run(&mut ctx).expect("video runs");
        assert!(report.metric_f64("megapixels_per_second").unwrap() > 0.0);
        assert_eq!(
            report.metric_f64("frames_encoded"),
            Some((BASE_FRAMES * 4) as f64)
        );
        assert!(report.metric_f64("compression_ratio").unwrap() > 0.5);
    }
}
