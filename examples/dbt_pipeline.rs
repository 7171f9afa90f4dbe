//! The full dynamic binary optimization pipeline (paper Figure 1) on a
//! guest program with a pointer pair that *truly aliases* only once the
//! loop is hot. While the loop warms up in the interpreter the pair reads
//! distinct words, so the translated region speculates on it; the first
//! region execution after the pointers meet raises an alias exception,
//! rolls back, blacklists the pair, re-optimizes conservatively, and then
//! runs cleanly. (A pair that aliased during warm-up would never have been
//! speculated on.)
//!
//! Run with: `cargo run --example dbt_pipeline`

use smarq_guest::{AluOp, CmpOp, Interpreter, ProgramBuilder, Reg};
use smarq_opt::OptConfig;
use smarq_runtime::{DynOptSystem, SystemConfig};

fn main() {
    // A loop that writes through r3 and reads through r5 — two registers
    // the runtime cannot disambiguate. From iteration 1000 on (well past
    // the hot threshold) they hold the SAME address.
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let body = b.block();
    let done = b.block();
    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), 2_000);
    b.iconst(entry, Reg(3), 0x1000);
    b.iconst(entry, Reg(7), 1_000); // the iteration the pointers meet
    b.iconst(entry, Reg(8), 0x1000);
    b.jump(entry, body);
    // r5 = r3 + (i < 1000) * 0x1000
    b.alu(body, AluOp::Slt, Reg(5), Reg(1), Reg(7));
    b.alu(body, AluOp::Mul, Reg(5), Reg(5), Reg(8));
    b.alu(body, AluOp::Add, Reg(5), Reg(3), Reg(5));
    b.st(body, Reg(1), Reg(3), 0);
    b.ld(body, Reg(4), Reg(5), 0); // must observe the store once aliased
    b.alu(body, AluOp::Add, Reg(6), Reg(6), Reg(4));
    b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
    b.halt(done);
    let program = b.finish(entry);

    // Reference run: pure interpretation.
    let mut reference = Interpreter::new();
    reference.run(&program, u64::MAX);

    // Dynamic optimization with SMARQ.
    let mut sys = DynOptSystem::new(program, SystemConfig::with_opt(OptConfig::smarq(64)));
    sys.run_to_completion(u64::MAX);

    let stats = sys.stats();
    println!("regions formed:        {}", stats.regions_formed);
    println!("region entries:        {}", stats.region_entries);
    println!("alias exceptions:      {}", stats.rollbacks);
    println!("re-translations:       {}", stats.retranslations);
    println!("blacklisted pairs:     {}", sys.blacklist().len());
    println!("simulated cycles:      {}", stats.total_cycles());
    println!(
        "optimization overhead: {:.4}%",
        stats.optimization_overhead() * 100.0
    );

    assert!(stats.rollbacks >= 1, "the aliasing pair must fault once");
    assert_eq!(
        sys.interp().arch_state(),
        reference.arch_state(),
        "optimized execution must match pure interpretation bit for bit"
    );
    println!("architectural state matches pure interpretation");
}
