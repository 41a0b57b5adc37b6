//! `dead-api` fixture, linted as `crates/fake/src/lib.rs`: the tool at
//! `src/bin/tool.rs` is the only root, and `crates/fake/tests/t.rs` the
//! only test.

pub struct Lib;

pub mod free {
    pub fn aliased() -> u32 {
        3
    }
}

use free::aliased as renamed;

pub fn via_alias() -> u32 {
    renamed()
}

pub trait Shape {
    fn area(&self) -> u32;
}

impl Lib {
    pub fn called() -> u32 {
        Lib::helper()
    }

    pub fn as_value(x: u32) -> u32 {
        x
    }

    pub(crate) fn helper() -> u32 {
        7
    }

    pub fn via_trait() -> u32 {
        0
    }

    // lint:allow(dead-api): fixture; the crate's doc example needs it
    pub fn waived() {}

    pub fn dead() {} // EXPECT dead-api

    pub fn tested() {} // EXPECT dead-api
}

impl Shape for Lib {
    fn area(&self) -> u32 {
        Lib::via_trait()
    }
}
