//! Differential oracle for the RCU path walk (ISSUE 9 satellite).
//!
//! One seeded operation schedule — lookups interleaved with rename,
//! unlink/recreate, and mount churn — runs against every distinct
//! personality VFS config. The observable outcome log must be
//! byte-identical across personalities: the RCU walk is an
//! optimization, never a semantic change. On the RCU-enabled configs
//! the schedule additionally drives `resolve_rcu` and `resolve_ref`
//! side by side and requires agreement whenever the RCU leg answers,
//! and the refcount books must balance when the schedule ends.
//!
//! A separate negative test pins the documented fallback: a torn
//! seqcount (modification in flight) forces the RCU leg to decline.

use pk_kernel::{KernelConfig, Personality};
use pk_percpu::CoreId;
use pk_vfs::{DentryKey, PathWalker, Vfs, VfsConfig, VfsError};
use std::sync::atomic::Ordering;

/// Schedule length: long enough that every op class fires on every
/// core, short enough to keep the battery under a second per config.
const STEPS: usize = 2_000;
const CORES: usize = 8;
const SEED: u64 = 42;

/// The kernel personalities' VFS configurations, derived from the
/// kernel's own mapping so this oracle cannot drift from the boot path
/// (adaptive boots with stock's, so it has no row of its own).
fn personalities() -> [(&'static str, VfsConfig); 3] {
    [
        ("stock", KernelConfig::stock(CORES).vfs()),
        ("coarse", Personality::Coarse.config(CORES).vfs()),
        ("pk", KernelConfig::pk(CORES).vfs()),
    ]
}

/// Deterministic xorshift64* — the schedule must not depend on the
/// `rand` crate's version-to-version stream stability.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn err_code(e: &VfsError) -> &'static str {
    match e {
        VfsError::NotFound => "ENOENT",
        VfsError::NotADirectory => "ENOTDIR",
        VfsError::IsADirectory => "EISDIR",
        VfsError::Exists => "EEXIST",
        VfsError::InvalidArgument => "EINVAL",
        _ => "EOTHER",
    }
}

/// Lays out the fixed tree the schedule mutates: five directories of
/// eight files each, plus `/mnt` as the mount-churn point.
fn populate(vfs: &Vfs) {
    let core = CoreId(0);
    for d in 0..5 {
        vfs.mkdir_p(&format!("/d{d}"), core).unwrap();
        for f in 0..8 {
            vfs.write_file(&format!("/d{d}/f{f}"), format!("{d}:{f}").as_bytes(), core)
                .unwrap();
        }
    }
    vfs.mkdir_p("/mnt", core).unwrap();
}

/// Runs the seeded schedule on one config and returns the outcome log.
/// Every step appends one line; errors are part of the contract, so
/// they are logged, never unwrapped.
fn run_schedule(vfs: &Vfs, check_rcu_leg: bool) -> Vec<String> {
    let walker = PathWalker::new(vfs.tmpfs(), vfs.dcache(), vfs.mounts());
    let mut rng = Rng(SEED);
    let mut log = Vec::with_capacity(STEPS);
    let mut mnt_mounted = false;
    for step in 0..STEPS {
        let core = CoreId(step % CORES);
        let roll = rng.pick(100);
        let d = rng.pick(5);
        let f = rng.pick(9); // 8 = a name that may not exist
        let path = format!("/d{d}/f{f}");
        if roll < 55 {
            // Lookup. On RCU-enabled configs, race the two legs against
            // each other first: when the lock-free leg answers it must
            // byte-match the locked walk.
            if check_rcu_leg {
                let rcu = walker.resolve_rcu(&path, core);
                let reference = walker.resolve_ref(&path, core);
                if let Some(rcu) = rcu {
                    match (&rcu, &reference) {
                        (Ok(a), Ok(b)) => assert_eq!(a.id, b.id, "legs disagree on {path}"),
                        (Err(a), Err(b)) => assert_eq!(a, b, "legs disagree on {path}"),
                        _ => panic!("legs disagree on {path}: {rcu:?} vs {reference:?}"),
                    }
                }
            }
            let entry = match walker.resolve(&path, core) {
                Ok(inode) => format!("resolve {path} -> inode {}", inode.id.0),
                Err(e) => format!("resolve {path} -> {}", err_code(&e)),
            };
            log.push(entry);
        } else if roll < 70 {
            let to = format!("/d{}/f{}", rng.pick(5), rng.pick(9));
            let entry = match vfs.rename(&path, &to, core) {
                Ok(()) => format!("rename {path} -> {to}"),
                Err(e) => format!("rename {path} -> {}", err_code(&e)),
            };
            log.push(entry);
        } else if roll < 82 {
            let entry = match vfs.unlink(&path, core) {
                Ok(()) => {
                    vfs.write_file(&path, b"reborn", core).unwrap();
                    format!("cycle {path}")
                }
                Err(e) => format!("unlink {path} -> {}", err_code(&e)),
            };
            log.push(entry);
        } else if roll < 92 {
            if mnt_mounted {
                let gone = vfs.mounts().umount("/mnt").is_some();
                log.push(format!("umount /mnt -> {gone}"));
            } else {
                vfs.mounts().mount("/mnt");
                log.push("mount /mnt".to_string());
            }
            mnt_mounted = !mnt_mounted;
        } else {
            // Open/close: refcount traffic through the full stack.
            let entry = match vfs.open(&path, core) {
                Ok(file) => {
                    vfs.close(&file, core);
                    format!("open {path} ok")
                }
                Err(e) => format!("open {path} -> {}", err_code(&e)),
            };
            log.push(entry);
        }
    }
    if mnt_mounted {
        assert!(vfs.mounts().umount("/mnt").is_some());
    }
    log
}

#[test]
fn one_schedule_every_personality_identical_results() {
    let mut logs: Vec<(&'static str, Vec<String>)> = Vec::new();
    for (name, cfg) in personalities() {
        let vfs = Vfs::new(cfg);
        populate(&vfs);
        let log = run_schedule(&vfs, cfg.rcu_path_walk);
        // The RCU walk must actually engage where it is configured on —
        // a silently dead fast path would make this test vacuous.
        let walks = vfs.stats().rcu_walks.load(Ordering::Relaxed);
        if cfg.rcu_path_walk {
            assert!(walks > 0, "{name}: rcu_path_walk on but no RCU walks ran");
        } else {
            assert_eq!(walks, 0, "{name}: rcu_path_walk off but RCU walks ran");
        }
        logs.push((name, log));
    }
    let (baseline_name, baseline) = &logs[0];
    for (name, log) in &logs[1..] {
        assert_eq!(
            log.len(),
            baseline.len(),
            "{name} diverged from {baseline_name} in schedule length"
        );
        for (i, (a, b)) in baseline.iter().zip(log.iter()).enumerate() {
            assert_eq!(a, b, "step {i}: {baseline_name}={a:?} {name}={b:?}");
        }
    }
}

#[test]
fn refcounts_balance_when_the_schedule_ends() {
    for (name, cfg) in personalities() {
        let vfs = Vfs::new(cfg);
        populate(&vfs);
        run_schedule(&vfs, cfg.rcu_path_walk);
        // Every dentry the cache still holds must be idle: the walks
        // and opens took and released references in pairs, so after we
        // release our own lookup reference the exact count is back to
        // the cache's creation reference — exactly 1, on every
        // personality. (`refcount_ops` splits shared vs. per-core
        // banked ops — a counter-placement detail, useless as a balance
        // check — so the invariant is on `references()`, which drains
        // the banks.)
        let mut op_traffic = 0u64;
        for d in 0..5 {
            let dir = vfs.tmpfs().get(vfs.tmpfs().root()).unwrap();
            let dir = vfs
                .tmpfs()
                .lookup_child(&dir, &format!("d{d}"))
                .expect("schedule never removes directories");
            for f in 0..9 {
                let key = DentryKey::new(dir.id, format!("f{f}"));
                if let Some(dentry) = vfs.dcache().lookup(&key, CoreId(0)) {
                    dentry.put(CoreId(0));
                    assert_eq!(dentry.references(), 1, "{name}: {key:?} leaked a reference");
                    let (shared, local) = dentry.refcount_ops();
                    op_traffic += shared + local;
                }
            }
        }
        // The schedule must actually have exercised the refcounts, or
        // the balance assertions above prove nothing.
        assert!(op_traffic > 0, "{name}: schedule drove no refcount ops");
        // The mount-churn point is umounted; the root mount must be
        // reference-idle too: resolves put what they got, leaving only
        // the table's own creation reference.
        let root = vfs.mounts().resolve("/", CoreId(0)).expect("root mounted");
        root.put(CoreId(0));
        assert_eq!(
            root.references(),
            1,
            "{name}: root vfsmount leaked references"
        );
    }
}

#[test]
fn torn_seqcount_forces_the_documented_fallback() {
    let cfg = KernelConfig::pk(CORES).vfs();
    let vfs = Vfs::new(cfg);
    populate(&vfs);
    let walker = PathWalker::new(vfs.tmpfs(), vfs.dcache(), vfs.mounts());
    let core = CoreId(0);
    // Warm the path so only the torn seqcount can cause a fallback.
    walker.resolve("/d0/f0", core).unwrap();
    assert!(walker.resolve_rcu("/d0/f0", core).is_some(), "warm walk");

    let root = vfs.tmpfs().get(vfs.tmpfs().root()).unwrap();
    let d0 = vfs.tmpfs().lookup_child(&root, "d0").unwrap();
    let dentry = vfs
        .dcache()
        .lookup(&DentryKey::new(d0.id, "f0"), core)
        .expect("warmed above");
    let fallbacks_before = vfs.stats().rcu_walk_fallbacks.load(Ordering::Relaxed);
    std::thread::scope(|s| {
        let modify = dentry.begin_modify();
        // Modification in flight: the seqcount is odd, the lock-free
        // read tears, and the walk must decline rather than guess.
        assert!(
            walker.resolve_rcu("/d0/f0", core).is_none(),
            "torn seqcount must force the locked fallback"
        );
        // The full resolve has to run on another thread: its locked
        // fallback serializes on the very d_lock the modify guard
        // holds, so in-thread it would deadlock against ourselves —
        // exactly the writer-excludes-walker ordering the protocol
        // documents. The walker records the fallback *before* it
        // blocks on the lock, so the counter is observable while the
        // modification is still in flight.
        let resolver = s.spawn(|| {
            let walker = PathWalker::new(vfs.tmpfs(), vfs.dcache(), vfs.mounts());
            walker.resolve("/d0/f0", CoreId(1)).unwrap()
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while vfs.stats().rcu_walk_fallbacks.load(Ordering::Relaxed) == fallbacks_before {
            assert!(
                std::time::Instant::now() < deadline,
                "fallback counter must record the declined walk"
            );
            std::thread::yield_now();
        }
        // Publish the (identity) modification; the blocked walker now
        // acquires the lock and completes the reference walk.
        drop(modify);
        let inode = resolver.join().expect("locked fallback completes");
        assert_eq!(inode.read_at(0, 3), b"0:0");
    });
}
