//! schema-version-bump: a field was added and the const was not touched.

pub const UNBUMPED_SCHEMA: u32 = 1;

pub struct Unbumped {
    pub a: u32,
    pub added: u64,
}
