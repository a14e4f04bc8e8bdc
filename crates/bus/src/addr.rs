//! Physical addresses, identifiers, and cache geometry arithmetic.

use std::fmt;

use crate::error::GeometryError;

/// A physical byte address on the host memory bus.
///
/// The S7A host in the paper drives 40-bit real addresses; we carry the full
/// 64 bits so scaled experiments can place footprints anywhere.
///
/// # Examples
///
/// ```
/// use memories_bus::Address;
///
/// let a = Address::new(0x1234);
/// assert_eq!(a.value(), 0x1234);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Address(u64);

impl Address {
    /// Creates an address from a raw byte value.
    pub const fn new(value: u64) -> Self {
        Address(value)
    }

    /// Returns the raw byte value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Returns the address aligned down to a `line_size` boundary.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `line_size` is not a power of two.
    #[must_use]
    pub fn align_down(self, line_size: u64) -> Self {
        debug_assert!(line_size.is_power_of_two());
        Address(self.0 & !(line_size - 1))
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u64> for Address {
    fn from(value: u64) -> Self {
        Address(value)
    }
}

impl From<Address> for u64 {
    fn from(addr: Address) -> Self {
        addr.0
    }
}

/// A cache-line address: a byte address already divided by the line size.
///
/// Line addresses are geometry-dependent, so they are only produced through
/// [`Geometry::line_addr`]; carrying them as a distinct type keeps byte and
/// line address spaces from being mixed up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number.
    pub const fn new(value: u64) -> Self {
        LineAddr(value)
    }

    /// Returns the raw line number.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

/// The identifier of a requester on the memory bus (a CPU or the I/O bridge).
///
/// The 6xx bus of the S7A host carries up to 12 processor ids plus I/O
/// bridge ids; MemorIES partitions these ids into emulated nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(u8);

impl ProcId {
    /// Maximum number of bus requester ids supported by the model.
    pub const MAX_IDS: usize = 64;

    /// Creates a requester id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= ProcId::MAX_IDS`.
    pub fn new(id: u8) -> Self {
        assert!(
            (id as usize) < Self::MAX_IDS,
            "requester id {id} out of range (max {})",
            Self::MAX_IDS
        );
        ProcId(id)
    }

    /// Returns the raw id.
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Returns the id as an index usable into dense per-requester arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// The identifier of an emulated SMP node (one of the four node-controller
/// FPGAs on the MemorIES board).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u8);

impl NodeId {
    /// The number of node controllers on the board (four FPGAs).
    pub const MAX_NODES: usize = 4;

    /// Creates a node id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= NodeId::MAX_NODES`.
    pub fn new(id: u8) -> Self {
        assert!(
            (id as usize) < Self::MAX_NODES,
            "node id {id} out of range (max {})",
            Self::MAX_NODES
        );
        NodeId(id)
    }

    /// Returns the raw id.
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Returns the id as an index usable into dense per-node arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all node ids `0..MAX_NODES`.
    pub fn all() -> impl Iterator<Item = NodeId> {
        (0..Self::MAX_NODES as u8).map(NodeId)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Power-of-two set-associative cache geometry and the address arithmetic
/// derived from it.
///
/// A geometry is `capacity = line_size * sets * ways` with `line_size` and
/// `sets` powers of two. It provides the tag/set/line decomposition used by
/// both the host caches and the board's emulated tag stores.
///
/// # Examples
///
/// ```
/// use memories_bus::{Address, Geometry};
///
/// let g = Geometry::new(64 << 20, 4, 128).unwrap(); // 64 MB, 4-way, 128 B lines
/// assert_eq!(g.sets(), 64 << 20 >> 7 >> 2);
/// let a = Address::new(0x1234_5678);
/// let line = g.line_addr(a);
/// assert_eq!(g.set_index(line), (0x1234_5678u64 >> 7) as usize % g.sets());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Geometry {
    line_size: u64,
    sets: u64,
    ways: u32,
    line_shift: u32,
    set_mask: u64,
}

impl Geometry {
    /// Creates a geometry from total capacity in bytes, associativity, and
    /// line size in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if any parameter is zero, `line_size` is
    /// not a power of two, capacity is not divisible by `ways * line_size`,
    /// or the resulting set count is not a power of two.
    pub fn new(capacity: u64, ways: u32, line_size: u64) -> Result<Self, GeometryError> {
        if capacity == 0 || ways == 0 || line_size == 0 {
            return Err(GeometryError::Zero);
        }
        if !line_size.is_power_of_two() {
            return Err(GeometryError::LineNotPowerOfTwo { line_size });
        }
        let per_way = line_size * u64::from(ways);
        if !capacity.is_multiple_of(per_way) {
            return Err(GeometryError::CapacityNotDivisible {
                capacity,
                ways,
                line_size,
            });
        }
        let sets = capacity / per_way;
        if !sets.is_power_of_two() {
            return Err(GeometryError::SetsNotPowerOfTwo { sets });
        }
        Ok(Geometry {
            line_size,
            sets,
            ways,
            line_shift: line_size.trailing_zeros(),
            set_mask: sets - 1,
        })
    }

    /// Line size in bytes.
    pub const fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Number of sets.
    pub const fn sets(&self) -> usize {
        self.sets as usize
    }

    /// Associativity (ways per set).
    pub const fn ways(&self) -> u32 {
        self.ways
    }

    /// Total capacity in bytes.
    pub const fn capacity(&self) -> u64 {
        self.line_size * self.sets * self.ways as u64
    }

    /// Total number of lines the cache can hold.
    pub const fn lines(&self) -> u64 {
        self.sets * self.ways as u64
    }

    /// Converts a byte address to its line address.
    pub const fn line_addr(&self, addr: Address) -> LineAddr {
        LineAddr(addr.value() >> self.line_shift)
    }

    /// Converts a line address back to the byte address of the line start.
    pub const fn line_base(&self, line: LineAddr) -> Address {
        Address::new(line.value() << self.line_shift)
    }

    /// The set a line address maps to.
    pub const fn set_index(&self, line: LineAddr) -> usize {
        (line.value() & self.set_mask) as usize
    }

    /// The tag bits of a line address (the part above the set index).
    pub const fn tag(&self, line: LineAddr) -> u64 {
        line.value() >> self.sets.trailing_zeros()
    }

    /// Reconstructs the line address for a `(tag, set)` pair; inverse of
    /// [`Geometry::tag`] + [`Geometry::set_index`].
    pub const fn line_from_parts(&self, tag: u64, set: usize) -> LineAddr {
        LineAddr((tag << self.sets.trailing_zeros()) | set as u64)
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cap = self.capacity();
        if cap >= 1 << 30 && cap.trailing_zeros() >= 30 {
            write!(f, "{}GB", cap >> 30)?;
        } else if cap >= 1 << 20 && cap.trailing_zeros() >= 20 {
            write!(f, "{}MB", cap >> 20)?;
        } else if cap >= 1 << 10 {
            write!(f, "{}KB", cap >> 10)?;
        } else {
            write!(f, "{cap}B")?;
        }
        write!(f, "/{}-way/{}B", self.ways, self.line_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_alignment_and_offset() {
        let a = Address::new(0x12345);
        assert_eq!(a.align_down(0x100), Address::new(0x12300));
        assert_eq!(format!("{a}"), "0x12345");
    }

    #[test]
    fn geometry_basic_decomposition() {
        let g = Geometry::new(8 << 20, 4, 128).unwrap();
        assert_eq!(g.capacity(), 8 << 20);
        assert_eq!(g.sets(), (8 << 20) / (4 * 128));
        assert_eq!(g.lines(), (8 << 20) / 128);

        let addr = Address::new(0xDEAD_BEEF);
        let line = g.line_addr(addr);
        assert_eq!(line.value(), 0xDEAD_BEEF >> 7);
        let set = g.set_index(line);
        let tag = g.tag(line);
        assert_eq!(g.line_from_parts(tag, set), line);
    }

    #[test]
    fn geometry_direct_mapped_and_single_set() {
        let dm = Geometry::new(1 << 20, 1, 128).unwrap();
        assert_eq!(dm.ways(), 1);
        assert_eq!(dm.sets(), (1 << 20) / 128);

        // Fully associative: sets == 1.
        let fa = Geometry::new(1024, 8, 128).unwrap();
        assert_eq!(fa.sets(), 1);
        assert_eq!(fa.set_index(LineAddr::new(0xABC)), 0);
        assert_eq!(fa.tag(LineAddr::new(0xABC)), 0xABC);
    }

    #[test]
    fn geometry_rejects_bad_parameters() {
        assert_eq!(Geometry::new(0, 1, 128).unwrap_err(), GeometryError::Zero);
        assert_eq!(
            Geometry::new(1 << 20, 0, 128).unwrap_err(),
            GeometryError::Zero
        );
        assert_eq!(
            Geometry::new(1 << 20, 1, 0).unwrap_err(),
            GeometryError::Zero
        );
        assert!(matches!(
            Geometry::new(1 << 20, 1, 100),
            Err(GeometryError::LineNotPowerOfTwo { .. })
        ));
        assert!(matches!(
            Geometry::new(100, 1, 128),
            Err(GeometryError::CapacityNotDivisible { .. })
        ));
        // 3 sets: capacity divisible but set count not a power of two.
        assert!(matches!(
            Geometry::new(3 * 128, 1, 128),
            Err(GeometryError::SetsNotPowerOfTwo { sets: 3 })
        ));
    }

    #[test]
    fn geometry_display_units() {
        assert_eq!(
            Geometry::new(2 << 30, 8, 128).unwrap().to_string(),
            "2GB/8-way/128B"
        );
        assert_eq!(
            Geometry::new(8 << 20, 4, 128).unwrap().to_string(),
            "8MB/4-way/128B"
        );
        assert_eq!(
            Geometry::new(64 << 10, 2, 64).unwrap().to_string(),
            "64KB/2-way/64B"
        );
    }

    #[test]
    fn proc_and_node_ids() {
        assert_eq!(ProcId::new(5).index(), 5);
        assert_eq!(ProcId::new(5).to_string(), "cpu5");
        assert_eq!(NodeId::all().count(), NodeId::MAX_NODES);
        assert_eq!(NodeId::new(3).to_string(), "node3");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_id_out_of_range_panics() {
        let _ = NodeId::new(4);
    }

    #[test]
    fn line_addresses_are_stable_across_same_geometry() {
        let g = Geometry::new(1 << 20, 2, 256).unwrap();
        let a = Address::new(0x0123_4567_89AB);
        let line = g.line_addr(a);
        assert_eq!(g.line_base(line), a.align_down(256));
    }
}
