//! Seeded input generators. The programs under test receive only what
//! these produce; the same seed yields the same inputs on every build.

pub mod history;
pub mod stream;
