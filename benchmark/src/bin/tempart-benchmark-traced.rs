//! The traced benchmark binary: per-layer metrics (`--trace 1`). Identical to
//! `tempart-benchmark` except that the counting allocator is installed, which
//! is what makes the `*.allocs` metrics real.

#[global_allocator]
static ALLOC: tempart_testkit::alloc::CountingAllocator = tempart_testkit::alloc::CountingAllocator;

fn main() -> std::process::ExitCode {
    tempart_benchmark::main_with(true)
}
