//! Seeded inputs: the stored key set, the client's reference model and the
//! random source its request stream draws from.

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::DeviceConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// Stored keys: 64 Ki uniform random 8-byte keys.
const KEYS: usize = 64 * 1024;
/// Bytes per key.
const KEY_LEN: usize = 8;

/// The simulated device every workload runs on (6 MiB L2).
pub fn device() -> DeviceConfig {
    cuart_gpu_sim::devices::rtx3090()
}

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a stream number, so requests
    /// repeat across runs.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A stored value: never 0, never the `NOT_FOUND`/`DELETE` sentinel.
    pub fn value(&mut self) -> u64 {
        1 + (self.next() >> 16)
    }
}

/// The key set of one seed, in generation order (key `i` stores `i + 1`)
/// and sorted (for range bounds).
pub struct Data {
    pub keys: Vec<Vec<u8>>,
    pub sorted: Vec<Vec<u8>>,
}

impl Data {
    pub fn new(seed: u64) -> Data {
        let keys = cuart_workloads::keys::uniform_keys(KEYS, KEY_LEN, seed);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        Data { keys, sorted }
    }

    pub fn art(&self) -> Art<u64> {
        let mut art = Art::new();
        for (i, k) in self.keys.iter().enumerate() {
            art.insert(k, i as u64 + 1)
                .expect("uniform keys are unique and prefix-free");
        }
        art
    }
}

/// Wall seconds of the timed set-up steps.
pub struct SetupTimes {
    pub art_build_s: f64,
    pub map_s: f64,
}

/// Generate the keys, build the ART and map it into CuART buffers.
pub fn build(seed: u64) -> (Data, CuartIndex, SetupTimes) {
    let data = Data::new(seed);
    let t = Instant::now();
    let art = data.art();
    let art_build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let index = CuartIndex::build(&art, &CuartConfig::default());
    let map_s = t.elapsed().as_secs_f64();
    let times = SetupTimes { art_build_s, map_s };
    (data, index, times)
}

/// The client's reference model of the stored keys.
pub struct Model {
    pub map: BTreeMap<Vec<u8>, u64>,
    /// The keys of `map` and their values, for sampling and O(1) checks.
    pub keys: Vec<Vec<u8>>,
    pub vals: Vec<u64>,
}

impl Model {
    pub fn new(data: &Data) -> Model {
        let mut model = Model {
            map: BTreeMap::new(),
            keys: Vec::new(),
            vals: Vec::new(),
        };
        for (i, k) in data.keys.iter().enumerate() {
            model.add(k.clone(), i as u64 + 1);
        }
        model
    }

    /// Store a new key.
    pub fn add(&mut self, key: Vec<u8>, value: u64) {
        self.keys.push(key.clone());
        self.vals.push(value);
        self.map.insert(key, value);
    }

    /// Overwrite the value of stored key `i`.
    pub fn set(&mut self, i: usize, value: u64) {
        self.vals[i] = value;
        if let Some(v) = self.map.get_mut(&self.keys[i]) {
            *v = value;
        }
    }

    /// A key that is not stored yet.
    pub fn fresh_key(&self, rng: &mut Rng) -> Vec<u8> {
        loop {
            let k = rng.next().to_be_bytes().to_vec();
            if !self.map.contains_key(&k) {
                return k;
            }
        }
    }
}
