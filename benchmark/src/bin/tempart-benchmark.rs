//! The untraced benchmark binary: end-to-end metrics (`--trace 0`) and the
//! all-workloads suite. No counting allocator is installed, so nothing taxes
//! the timed operations.

fn main() -> std::process::ExitCode {
    tempart_benchmark::main_with(false)
}
