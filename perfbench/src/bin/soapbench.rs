fn main() {
    perfbench::main()
}
