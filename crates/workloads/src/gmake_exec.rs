//! A real parallel `make` executor (§3.5).
//!
//! gmake "supports executing independent build rules concurrently" and
//! the paper runs it with "the maximum number of concurrent jobs ...
//! twice the number of cores." This module implements that executor:
//! a dependency DAG of rules with recipes that run against the kernel
//! substrate, dispatched to worker threads through a ready queue, with
//! the serial-stage/straggler structure that limits gmake's speedup.

use pk_kernel::{Kernel, KernelError};
use pk_percpu::CoreId;
use pk_sync::SpinLock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A recipe: runs on a core against the kernel, like a compiler process.
pub type Recipe = Box<dyn Fn(&Kernel, CoreId) -> Result<(), pk_vfs::VfsError> + Send + Sync>;

/// One build rule.
pub struct Rule {
    /// Target name (diagnostic).
    pub name: String,
    /// Indices of rules that must complete first.
    pub deps: Vec<usize>,
    /// The work.
    pub recipe: Recipe,
}

impl std::fmt::Debug for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rule")
            .field("name", &self.name)
            .field("deps", &self.deps)
            .finish()
    }
}

/// A build dependency graph.
#[derive(Debug, Default)]
pub struct BuildGraph {
    rules: Vec<Rule>,
}

impl BuildGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule, returning its index for use as a dependency.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        deps: Vec<usize>,
        recipe: impl Fn(&Kernel, CoreId) -> Result<(), pk_vfs::VfsError> + Send + Sync + 'static,
    ) -> usize {
        let idx = self.rules.len();
        for &d in &deps {
            assert!(d < idx, "dependencies must be added before dependents");
        }
        self.rules.push(Rule {
            name: name.into(),
            deps,
            recipe: Box::new(recipe),
        });
        idx
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns whether the graph has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Builds the classic kernel-build shape: one serial configure stage,
    /// `objects` parallel compiles reading `/src/f{i}.c` and writing
    /// `/obj/f{i}.o`, and one serial link stage producing `/obj/vmlinux`.
    pub fn kernel_build(objects: usize) -> Self {
        let mut g = Self::new();
        let configure = g.add("configure", vec![], |k, core| {
            k.vfs().mkdir_p("/obj", core)?;
            k.vfs().write_file("/obj/.config", b"CONFIG_SMP=y", core)
        });
        let compiles: Vec<usize> = (0..objects)
            .map(|i| {
                g.add(format!("cc f{i}.o"), vec![configure], move |k, core| {
                    let src = k.vfs().read_file(&format!("/src/f{i}.c"), core)?;
                    let obj: Vec<u8> = src.iter().map(|b| b.wrapping_add(1)).collect();
                    k.vfs().write_file(&format!("/obj/f{i}.o"), &obj, core)
                })
            })
            .collect();
        g.add("ld vmlinux", compiles, move |k, core| {
            let mut image = Vec::new();
            for i in 0..objects {
                image.extend(k.vfs().read_file(&format!("/obj/f{i}.o"), core)?);
            }
            k.vfs().write_file("/obj/vmlinux", &image, core)
        });
        g
    }
}

/// Result of a parallel build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildReport {
    /// Rules executed.
    pub rules_run: usize,
    /// Jobs that ran while at least one other job was in flight
    /// (parallelism actually achieved).
    pub overlapped: u64,
    /// Processes forked (one per rule, like gmake's children).
    pub processes: u64,
}

/// The parallel executor.
#[derive(Debug)]
pub struct ParallelMake {
    /// Maximum concurrent jobs (the paper: 2 × cores).
    pub jobs: usize,
}

impl ParallelMake {
    /// Creates an executor with `jobs` maximum concurrency.
    pub fn new(jobs: usize) -> Self {
        assert!(jobs > 0);
        Self { jobs }
    }

    /// Runs the graph to completion against `kernel`.
    ///
    /// On the first failed fork, recipe, or reap, the remaining workers
    /// stop dispatching (in-flight jobs finish) and that first error is
    /// returned — like `make` without `-k`. Child processes are reaped
    /// even when their recipe fails.
    pub fn build(
        &self,
        kernel: &Arc<Kernel>,
        graph: &BuildGraph,
    ) -> Result<BuildReport, KernelError> {
        let n = graph.rules.len();
        // Indegrees and reverse edges.
        let mut indegree: Vec<AtomicUsize> = Vec::with_capacity(n);
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, rule) in graph.rules.iter().enumerate() {
            indegree.push(AtomicUsize::new(rule.deps.len()));
            for &d in &rule.deps {
                dependents[d].push(i);
            }
        }
        let ready: SpinLock<VecDeque<usize>> = SpinLock::new(
            (0..n)
                .filter(|&i| indegree[i].load(Ordering::Relaxed) == 0)
                .collect(),
        );
        ready.set_class(pk_lockdep::register_class(
            "gmake.ready_queue",
            "pk-workloads",
            pk_lockdep::LockKind::Spin,
        ));
        let completed = AtomicUsize::new(0);
        let in_flight = AtomicUsize::new(0);
        let overlapped = AtomicU64::new(0);
        let processes = AtomicU64::new(0);
        // First failure wins; its presence tells every worker to stop.
        let failure: SpinLock<Option<KernelError>> = SpinLock::new(None);
        failure.set_class(pk_lockdep::register_class(
            "gmake.failure_slot",
            "pk-workloads",
            pk_lockdep::LockKind::Spin,
        ));

        std::thread::scope(|s| {
            for worker in 0..self.jobs {
                let kernel = Arc::clone(kernel);
                let graph = &graph;
                let ready = &ready;
                let indegree = &indegree;
                let dependents = &dependents;
                let completed = &completed;
                let in_flight = &in_flight;
                let overlapped = &overlapped;
                let processes = &processes;
                let failure = &failure;
                s.spawn(move || {
                    let core = CoreId(worker % kernel.config().cores);
                    loop {
                        if failure.lock().is_some() {
                            return;
                        }
                        let job = ready.lock().pop_front();
                        match job {
                            Some(i) => {
                                if in_flight.fetch_add(1, Ordering::AcqRel) > 0 {
                                    overlapped.fetch_add(1, Ordering::Relaxed);
                                }
                                let result = run_rule(&kernel, core, &graph.rules[i], processes);
                                in_flight.fetch_sub(1, Ordering::AcqRel);
                                match result {
                                    Ok(()) => {
                                        // Release dependents.
                                        for &dep in &dependents[i] {
                                            if indegree[dep].fetch_sub(1, Ordering::AcqRel) == 1 {
                                                ready.lock().push_back(dep);
                                            }
                                        }
                                        completed.fetch_add(1, Ordering::AcqRel);
                                    }
                                    Err(e) => {
                                        let mut slot = failure.lock();
                                        if slot.is_none() {
                                            *slot = Some(e);
                                        }
                                        return;
                                    }
                                }
                            }
                            None => {
                                if completed.load(Ordering::Acquire) == n {
                                    return;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                });
            }
        });
        if let Some(e) = failure.lock().take() {
            return Err(e);
        }
        Ok(BuildReport {
            rules_run: completed.load(Ordering::Relaxed),
            overlapped: overlapped.load(Ordering::Relaxed),
            processes: processes.load(Ordering::Relaxed),
        })
    }
}

/// Forks a child, runs `rule`'s recipe in it, and reaps it. The child
/// is reaped even when its recipe fails, and the recipe's error wins.
fn run_rule(
    kernel: &Kernel,
    core: CoreId,
    rule: &Rule,
    processes: &AtomicU64,
) -> Result<(), KernelError> {
    // Each rule runs as a forked child, like gmake's compiler processes.
    let pid = kernel.fork(pk_proc::Pid(1), core)?;
    processes.fetch_add(1, Ordering::Relaxed);
    let ran = (rule.recipe)(kernel, core).map_err(KernelError::from);
    let reaped = kernel.exit(pid, core);
    ran.and(reaped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pk_kernel::Personality;

    fn kernel_with_sources(choice: Personality, cores: usize, n: usize) -> Arc<Kernel> {
        let k = Arc::new(Kernel::new(choice.config(cores)));
        k.vfs().mkdir_p("/src", CoreId(0)).unwrap();
        for i in 0..n {
            k.vfs()
                .write_file(
                    &format!("/src/f{i}.c"),
                    format!("source {i}").as_bytes(),
                    CoreId(0),
                )
                .unwrap();
        }
        k
    }

    #[test]
    fn builds_the_kernel_shape() {
        let k = kernel_with_sources(Personality::Pk, 4, 20);
        let graph = BuildGraph::kernel_build(20);
        assert_eq!(graph.len(), 22); // configure + 20 compiles + link
        let report = ParallelMake::new(8).build(&k, &graph).unwrap();
        assert_eq!(report.rules_run, 22);
        assert_eq!(report.processes, 22);
        let vmlinux = k.vfs().stat("/obj/vmlinux", CoreId(0)).unwrap();
        assert!(vmlinux.size > 0);
        // All build processes were reaped.
        assert_eq!(k.procs().len(), 1);
    }

    #[test]
    fn respects_dependencies() {
        // A diamond: a → (b, c) → d; d must see both b and c outputs.
        let k = Arc::new(Kernel::new(Personality::Pk.config(2)));
        let mut g = BuildGraph::new();
        let a = g.add("a", vec![], |k, c| k.vfs().write_file("/a", b"A", c));
        let b = g.add("b", vec![a], |k, c| {
            let a = k.vfs().read_file("/a", c)?;
            k.vfs().write_file("/b", &a, c)
        });
        let c_ = g.add("c", vec![a], |k, c| {
            let a = k.vfs().read_file("/a", c)?;
            k.vfs().write_file("/c", &a, c)
        });
        g.add("d", vec![b, c_], |k, c| {
            let mut out = k.vfs().read_file("/b", c)?;
            out.extend(k.vfs().read_file("/c", c)?);
            k.vfs().write_file("/d", &out, c)
        });
        let report = ParallelMake::new(4).build(&k, &g).unwrap();
        assert_eq!(report.rules_run, 4);
        assert_eq!(k.vfs().read_file("/d", CoreId(0)).unwrap(), b"AA");
    }

    #[test]
    fn single_job_is_fully_serial() {
        let k = kernel_with_sources(Personality::Stock, 1, 6);
        let report = ParallelMake::new(1)
            .build(&k, &BuildGraph::kernel_build(6))
            .unwrap();
        assert_eq!(report.overlapped, 0, "one job never overlaps");
        assert_eq!(report.rules_run, 8);
    }

    #[test]
    fn parallel_jobs_overlap() {
        // Recipes yield mid-execution so overlap happens even on a
        // single-CPU host.
        let k = Arc::new(Kernel::new(Personality::Pk.config(4)));
        let mut g = BuildGraph::new();
        for i in 0..16 {
            g.add(format!("job{i}"), vec![], move |k, c| {
                for _ in 0..20 {
                    std::thread::yield_now();
                }
                k.vfs().write_file(&format!("/out{i}"), b"x", c)
            });
        }
        let report = ParallelMake::new(8).build(&k, &g).unwrap();
        assert_eq!(report.rules_run, 16);
        assert!(
            report.overlapped > 0,
            "with 8 workers and yielding jobs some work overlaps"
        );
    }

    #[test]
    fn failed_recipe_surfaces_typed_and_reaps_children() {
        let k = Arc::new(Kernel::new(Personality::Pk.config(2)));
        let mut g = BuildGraph::new();
        let missing = g.add("cc missing.o", vec![], |k, c| {
            // Reads a source that was never laid out: permanent ENOENT.
            k.vfs().read_file("/src/missing.c", c).map(|_| ())
        });
        g.add("ld after", vec![missing], |k, c| {
            k.vfs().write_file("/never", b"x", c)
        });
        let err = ParallelMake::new(2).build(&k, &g).unwrap_err();
        assert!(!err.is_transient(), "ENOENT is permanent: {err}");
        // The dependent rule never ran and the failed child was reaped.
        assert!(k.vfs().stat("/never", CoreId(0)).is_err());
        assert_eq!(k.procs().len(), 1, "failed build leaked processes");
    }

    #[test]
    #[should_panic(expected = "dependencies must be added before dependents")]
    fn forward_dependencies_rejected() {
        let mut g = BuildGraph::new();
        g.add("bad", vec![5], |_, _| Ok(()));
    }

    #[test]
    fn stock_and_pk_build_identical_images() {
        let mut images = Vec::new();
        for choice in [Personality::Stock, Personality::Pk] {
            let k = kernel_with_sources(choice, 4, 10);
            ParallelMake::new(8)
                .build(&k, &BuildGraph::kernel_build(10))
                .unwrap();
            images.push(k.vfs().read_file("/obj/vmlinux", CoreId(0)).unwrap());
        }
        assert_eq!(images[0], images[1]);
    }
}
