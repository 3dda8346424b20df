//! Property tests for architectural checkpoints: saving at a *random*
//! retirement point, round-tripping through bytes, restoring, and
//! resuming must reproduce the uninterrupted run exactly — digest-for-
//! digest — on every workload in the suite; and the memory delta, taken
//! in full or kept running from each share, is the same delta.

use std::sync::OnceLock;

use proptest::prelude::*;
use sim_isa::{Cpu, CpuCheckpoint, MemoryCheckpoint, RunningDelta, SparseMemory};
use workloads::{Benchmark, GraphInput, SizeClass, Workload};

/// How far each run executes. Small enough to keep the property cheap,
/// long enough that every benchmark is deep inside its kernel.
const TOTAL: u64 = 40_000;

fn suite() -> &'static Vec<Workload> {
    static SUITE: OnceLock<Vec<Workload>> = OnceLock::new();
    SUITE.get_or_init(|| {
        Benchmark::ALL
            .into_iter()
            .map(|b| b.build(b.is_gap().then_some(GraphInput::Kr), SizeClass::Small, 42))
            .collect()
    })
}

/// One number summarising the complete architectural state.
fn digest(cpu: &Cpu, mem: &SparseMemory) -> (u64, usize, u64, [u64; sim_isa::NUM_REGS], u64) {
    (cpu.retired(), cpu.pc(), if cpu.is_halted() { 1 } else { 0 }, cpu.regs(), mem.checksum())
}

proptest! {
    // Each case runs two full functional executions; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpoint at a random split point, serialize, restore, resume:
    /// the final architectural digest matches the uninterrupted run.
    #[test]
    fn checkpoint_restore_resume_matches_uninterrupted(
        which in 0usize..13,
        permille in 50u64..950,
    ) {
        let wl = &suite()[which];
        let split = TOTAL * permille / 1000;

        // Uninterrupted reference.
        let mut ref_cpu = Cpu::new();
        let mut ref_mem = wl.mem.clone();
        ref_cpu.run(&wl.prog, &mut ref_mem, TOTAL).unwrap();

        // Interrupted run: stop at `split`, checkpoint through bytes.
        let mut cpu = Cpu::new();
        let mut mem = wl.mem.clone();
        let done = cpu.run(&wl.prog, &mut mem, split).unwrap();
        let cpu_ck = CpuCheckpoint::from_bytes(&cpu.checkpoint().to_bytes())
            .expect("cpu image parses");
        let mem_ck = MemoryCheckpoint::from_bytes(&mem.checkpoint_delta(&wl.mem).to_bytes())
            .expect("mem image parses");
        let mut cpu = Cpu::from_checkpoint(&cpu_ck);
        let mut mem = SparseMemory::restore_from(&wl.mem, &mem_ck);
        prop_assert_eq!(cpu.retired(), done);
        cpu.run(&wl.prog, &mut mem, TOTAL - done).unwrap();

        prop_assert_eq!(digest(&cpu, &mem), digest(&ref_cpu, &ref_mem), "{}", wl.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interleaving writes with `share()` calls changes nothing a reader
    /// can see: the checkpoint against a shared base is byte-identical to
    /// the checkpoint of a memory that never shared, restoring it gives
    /// the same image, and no clone taken along the way sees later writes.
    ///
    /// Each step is `(page, offset, value, op)`: `op` 0 shares the image,
    /// 1 shares it and keeps a clone, and 2–5 write `value` with width 1,
    /// 2, 4 or 8 at `page << 12 | offset`. Small values make rewrites of a
    /// page's original bytes, and all-zero pages, common.
    #[test]
    fn shared_pages_checkpoint_and_restore_like_never_shared_memory(
        base_writes in prop::collection::vec((0u64..6, 0u64..4096, 0u64..4), 0..12),
        steps in prop::collection::vec((0u64..8, 0u64..4096, 0u64..4, 0usize..6), 1..48),
    ) {
        let mut plain_base = SparseMemory::new();
        for (page, off, value) in base_writes {
            plain_base.write_u64(page << 12 | off, value);
        }
        let mut shared_base = plain_base.clone();
        shared_base.share();

        let mut plain = plain_base.clone();
        let mut shared = shared_base.clone();
        let mut forks = Vec::new();
        for (page, off, value, op) in steps {
            match op {
                0 => {
                    shared.share();
                }
                1 => {
                    shared.share();
                    forks.push((shared.clone(), plain.checksum()));
                }
                _ => {
                    let width = 1 << (op - 2);
                    plain.write(page << 12 | off, width, value);
                    shared.write(page << 12 | off, width, value);
                }
            }
        }

        let want = plain.checkpoint_delta(&plain_base);
        prop_assert_eq!(shared.checkpoint_delta(&shared_base).to_bytes(), want.to_bytes());
        shared.share();
        let got = shared.checkpoint_delta(&shared_base);
        prop_assert_eq!(got.to_bytes(), want.to_bytes());

        let from_plain = SparseMemory::restore_from(&plain_base, &want);
        let from_shared = SparseMemory::restore_from(&shared_base, &got);
        prop_assert_eq!(from_shared.checksum(), from_plain.checksum());
        prop_assert_eq!(from_shared.checksum(), plain.checksum());
        for addr in (0..8u64 << 12).step_by(8) {
            prop_assert_eq!(from_shared.read_u64(addr), plain.read_u64(addr), "{:#x}", addr);
        }
        prop_assert_eq!(shared_base.checksum(), plain_base.checksum());
        for (fork, sum) in &forks {
            prop_assert_eq!(fork.checksum(), *sum);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A running delta, folded from what every share reports, is the full
    /// delta against the base after every share, byte for byte.
    ///
    /// The base holds non-zero words on some of pages 0–5, and is shared
    /// first or not. Each step is `(page, offset, value, op)` on pages
    /// 0–7, so pages 6 and 7, and any page the base left out, are absent
    /// from it: `op` 0 shares and folds, 1–4 write `value` with width 1,
    /// 2, 4 or 8 at `page << 12 | offset` (a zero write to an absent page
    /// makes a new page left all zero), and 5 writes the page's base bytes
    /// back over all of it.
    #[test]
    fn running_delta_matches_the_full_delta_after_every_share(
        base_writes in prop::collection::vec((0u64..6, 0u64..512, 1u64..4), 1..12),
        share_base in any::<bool>(),
        steps in prop::collection::vec((0u64..8, 0u64..4096, 0u64..3, 0usize..6), 1..64),
    ) {
        let mut base = SparseMemory::new();
        for (page, word, value) in base_writes {
            base.write_u64(page << 12 | word << 3, value);
        }
        if share_base {
            base = base.shared_clone();
        }
        let mut mem = base.clone();
        let mut delta = RunningDelta::new();
        let mut shares = 0;
        for (page, off, value, op) in steps.into_iter().chain([(0, 0, 0, 0)]) {
            let addr = page << 12 | off;
            match op {
                0 => {
                    delta.fold(&base, mem.share());
                    shares += 1;
                    let (got, want) = (delta.checkpoint(), mem.checkpoint_delta(&base));
                    prop_assert!(
                        got.to_bytes() == want.to_bytes(),
                        "share {}: the running delta holds {} pages, the full delta {}",
                        shares,
                        got.page_count(),
                        want.page_count()
                    );
                }
                5 => {
                    for word in (page << 12..(page + 1) << 12).step_by(8) {
                        mem.write_u64(word, base.read_u64(word));
                    }
                }
                _ => mem.write(addr, 1 << (op - 1), value),
            }
        }
        let restored = SparseMemory::restore_from(&base, &delta.checkpoint());
        prop_assert_eq!(restored.checksum(), mem.checksum());
    }
}
