//! Seeded program generation: the benchmark's only input source.
//!
//! Every workload profiles a program generated here from the workload
//! seed. The shape is fixed per workload; the seed picks work amounts
//! and the target of every call site, so ticks, arcs and bytes change
//! with the seed while the number of calls, and so the cost of one
//! operation, stays the same.

use graphprof_machine::{BodyBuilder, Program};

/// SplitMix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }
}

/// The fixed shape of a generated program.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Layers of ordinary routines below `main`.
    pub layers: u32,
    /// Routines per layer.
    pub width: u32,
    /// Destinations of the one indirect call site in `dispatch`.
    pub handlers: u32,
    /// Calls made around the `expr → term → factor → expr` cycle per
    /// iteration of `main`.
    pub recursion: u32,
    /// Iterations of `main`'s outer loop.
    pub iterations: u32,
}

/// Generates a program of `shape` from `seed`: a layered call tree, a
/// three-routine recursion cycle, and one indirect call site that `main`
/// points at each handler in turn.
pub fn program(seed: u64, shape: Shape) -> Program {
    let mut rng = Rng::new(seed);
    let name = |layer: u32, i: u32| format!("l{layer}_{i}");
    let mut b = Program::builder();

    b.routine("main", move |r| {
        r.loop_n(shape.iterations, |mut body| {
            for i in 0..shape.width {
                body = body.call(name(0, i));
            }
            body = body.set_counter(7, shape.recursion + 1).call("expr");
            for h in 0..shape.handlers {
                body = body.set_slot(0, format!("handler{h}")).call("dispatch");
            }
            body
        })
    });
    b.routine("dispatch", |r| r.work(3).call_indirect(0));
    let last = shape.layers - 1;
    for h in 0..shape.handlers {
        let work = rng.range(10, 80);
        let leaf = name(last, rng.range(0, shape.width - 1));
        b.routine(format!("handler{h}"), move |r| r.work(work).call(leaf));
    }
    let (expr, term, factor) = (rng.range(5, 30), rng.range(5, 30), rng.range(5, 30));
    let helper = name(last, rng.range(0, shape.width - 1));
    b.routine("expr", move |r| r.work(expr).call("term"));
    b.routine("term", move |r| r.work(term).call_while(7, "factor"));
    b.routine("factor", move |r| r.work(factor).call(helper).call_while(7, "expr"));

    for layer in 0..shape.layers {
        for i in 0..shape.width {
            let work = rng.range(5, 60);
            let mut callees = Vec::new();
            // Two call sites per routine, callees drawn at random: the
            // seed moves arcs and times but not the number of calls, so
            // one op costs about the same for every seed.
            if layer < last {
                for _ in 0..2 {
                    callees.push(name(layer + 1, rng.range(0, shape.width - 1)));
                }
            }
            b.routine(name(layer, i), move |mut r: BodyBuilder| {
                r = r.work(work);
                for callee in callees {
                    r = r.call(callee);
                }
                r
            });
        }
    }
    b.build().expect("generated programs are well-formed")
}
