//! `dead-api` fixture root, linted as `src/bin/tool.rs`.

use fake::Lib;

fn main() {
    let total: u32 = [1, 2].into_iter().map(Lib::as_value).sum();
    println!("{}", total + Lib::called() + fake::via_alias());
}
