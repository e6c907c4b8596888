//! schema-version-bump: tracked, and the lock is current. Silent.

pub const CLEAN_SCHEMA: u32 = 3;
pub(crate) static CLEAN_WIRE_SCHEMA_VERSION: u32 = 1_1;
const NOT_A_VERSION: u32 = 7;

pub struct Clean {
    pub a: u32,
    pub b: Option<u64>,
}

#[derive(Clone, Copy)]
pub enum Kind {
    A,
    B(u32),
    C { x: [u8; 4] },
}

pub struct Pair(pub u32, pub [u8; 4]);

pub struct Unit;

pub struct Generic<T: Fn() -> u8>
where
    T: Clone,
{
    f: T,
}

pub union Bits {
    word: u32,
    bytes: [u8; 4],
}

impl Clean {
    fn helper(&self) -> u32 {
        self.a
    }
}

#[cfg(test)]
mod tests {
    const TEST_ONLY_SCHEMA: u32 = 9;

    struct OnlyInTests {
        x: u8,
    }
}
