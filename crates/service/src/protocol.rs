//! The typed request/response protocol every evaluation path speaks.
//!
//! A [`Request`] names one operation the reproduction can perform —
//! the same seven the CLI exposes (`list`, `report`, `compare`, `asm`,
//! `sweep`, `dse`, `quantize`), plus the network server's `stats` and
//! `shutdown` — and a [`Response`] carries its full machine-readable
//! result. Both sides round-trip through the deterministic JSON layer
//! ([`crate::json`]): `encode ∘ parse ∘ encode` is a fixed point for every
//! variant (property-tested), and the wire form is a single line, so the
//! `serve` loop's JSON-lines framing and the one-shot `--json` flag emit
//! byte-identical documents.
//!
//! Wire shape: requests are objects with a `"cmd"` discriminant
//! (`{"cmd":"report","benchmark":"LSTM",...}`), responses with a
//! `"reply"` discriminant mirroring the request that produced them, plus
//! `{"reply":"error","message":...}` for failures.
//!
//! Each message is declared once, in a `wire!` table listing every field
//! with its doc comment, Rust name, type, optional `[rule]` and optional
//! `= default`. The table generates the Rust type, its encoder and the
//! one strict decoder both directions use, so the tables are the schema:
//!
//! * keys are emitted in declaration order. A field's key is its Rust
//!   name unless the rule renames it (`[as "latency_us"]`) or nests it in
//!   a sub-object (`[in "layer_cache" as "hits"]`; consecutive fields of
//!   one group share one object);
//! * an `Option` field is omitted when `None` and decodes to `None` when
//!   absent; an `[omit_empty]` list is omitted when empty and decodes to
//!   empty when absent; a field with `= default` decodes to that default
//!   when absent (hand-written requests stay terse); any other field is
//!   required;
//! * a `[flat]` field spreads over keys its type's hand-written codec
//!   owns: [`ModelSource`] is `benchmark` XOR `model`;
//! * decoding rejects unknown keys and duplicate keys by name, at every
//!   level, so a typo'd or repeated field is an error, never a silent
//!   default.

use bitfusion_dnn::model::Model;
use bitfusion_dnn::quantspec::QuantSpec;
use bitfusion_dnn::schema::{export_model, model_from_json};

use crate::json::{parse as parse_json, Json};

/// Converts a [`QuantSpec`] to its JSON document: `{"preset":"uniform8"}`
/// for named presets, or the explicit
/// `{"default":"4/1","kinds":[{"kind":"conv","precision":"2/2"}],
/// "layers":[{"layer":"fc8","precision":"8/8"}]}` form (absent fields
/// omitted). `encode ∘ parse ∘ encode` is a fixed point (property-tested
/// in `tests/protocol_roundtrip.rs`).
pub fn quant_spec_to_json(spec: &QuantSpec) -> Json {
    let text = spec.to_string();
    if !text.contains('=') {
        // The canonical spelling is a preset name (`paper`, `uniformN`).
        return Json::obj(vec![("preset", Json::Str(text))]);
    }
    let mut pairs: Vec<(&str, Json)> = Vec::new();
    if let Some(p) = spec.default {
        pairs.push(("default", Json::Str(p.compact())));
    }
    if !spec.kinds.is_empty() {
        pairs.push((
            "kinds",
            Json::Arr(
                spec.kinds
                    .iter()
                    .map(|(kind, p)| {
                        Json::obj(vec![
                            ("kind", Json::Str(kind.clone())),
                            ("precision", Json::Str(p.compact())),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if !spec.layers.is_empty() {
        pairs.push((
            "layers",
            Json::Arr(
                spec.layers
                    .iter()
                    .map(|(layer, p)| {
                        Json::obj(vec![
                            ("layer", Json::Str(layer.clone())),
                            ("precision", Json::Str(p.compact())),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Json::obj(pairs)
}

/// Reads a [`QuantSpec`] back from its JSON document (either form
/// [`quant_spec_to_json`] emits). This is also the format of the
/// `--quant <spec.json>` files the CLI accepts.
///
/// # Errors
///
/// Names the missing or ill-typed field, or the invalid precision/kind.
pub fn quant_spec_from_json(doc: &Json) -> Result<QuantSpec, String> {
    if let Some(preset) = doc.get("preset") {
        let preset = preset.as_str().ok_or("preset must be a string")?;
        if doc.get("default").is_some()
            || doc.get("kinds").is_some()
            || doc.get("layers").is_some()
        {
            return Err("a quant spec is either a preset or explicit fields, not both".into());
        }
        return QuantSpec::parse(preset);
    }
    let precision_of = |entry: &Json, clause: &str| -> Result<_, String> {
        let p = entry
            .get("precision")
            .and_then(Json::as_str)
            .ok_or(format!("{clause} entry needs a string `precision`"))?;
        p.parse()
            .map_err(|_| format!("bad precision `{p}` in {clause} entry (e.g. `4/1`)"))
    };
    let mut spec = QuantSpec::default();
    if let Some(d) = doc.get("default") {
        let d = d.as_str().ok_or("default must be a string like `4/1`")?;
        spec.default =
            Some(d.parse().map_err(|_| format!("bad default precision `{d}` (e.g. `4/1`)"))?);
    }
    if let Some(kinds) = doc.get("kinds") {
        for entry in kinds.as_arr().ok_or("kinds must be an array")? {
            let kind = entry
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("kinds entry needs a string `kind`")?;
            if !bitfusion_dnn::quantspec::QUANT_KINDS.contains(&kind) {
                return Err(format!(
                    "unknown kind `{kind}` (expected one of: {})",
                    bitfusion_dnn::quantspec::QUANT_KINDS.join(", ")
                ));
            }
            spec.kinds.push((kind.to_string(), precision_of(entry, "kinds")?));
        }
    }
    if let Some(layers) = doc.get("layers") {
        for entry in layers.as_arr().ok_or("layers must be an array")? {
            let layer = entry
                .get("layer")
                .and_then(Json::as_str)
                .ok_or("layers entry needs a string `layer`")?;
            if layer.is_empty() {
                return Err("layers entry has an empty layer name".into());
            }
            spec.layers
                .push((layer.to_string(), precision_of(entry, "layers")?));
        }
    }
    if spec.is_paper() {
        return Err(
            "empty quant spec (use {\"preset\":\"paper\"} for the identity assignment)".into(),
        );
    }
    Ok(spec)
}

/// An object's key/value pairs, in wire order.
type Pairs = Vec<(String, Json)>;

/// The keys one declared field occupies: its top-level keys (one, or the
/// keys a `[flat]` field's codec owns), and, when the top-level key is a
/// sub-object group, the field's key inside it.
type Keys = (&'static [&'static str], Option<&'static str>);

/// Why a wire value failed to decode, before the key it sits under is
/// known.
enum WireError {
    /// Not of the field's JSON kind (named as diagnostics spell it).
    Kind(&'static str),
    /// Not an array.
    NotArray,
    /// An array entry not of the entry's kind.
    Entry(&'static str),
    /// An integer too large for the field.
    Range,
    /// An already worded diagnostic (unknown spelling, nested field,
    /// model document).
    Msg(String),
}

impl WireError {
    /// The diagnostic for this error under `key`. A required field of the
    /// wrong kind reads as missing.
    fn at(self, key: &str, required: bool) -> String {
        match self {
            WireError::Kind(kind) if required => format!("missing {kind} field `{key}`"),
            WireError::Kind(kind) => format!("field `{key}` must be a {kind}"),
            WireError::NotArray => format!("{key} must be an array"),
            WireError::Entry(kind) => format!("{key} entries must be {kind}s"),
            WireError::Range => format!("{key} out of range"),
            WireError::Msg(message) => message,
        }
    }
}

/// A value with a wire form: every field type a `wire!` table names.
trait Wire: Sized {
    /// The JSON kind diagnostics name.
    const KIND: &'static str;
    /// The wire value.
    fn to_wire(&self) -> Json;
    /// Reads a wire value back.
    fn from_wire(v: &Json) -> Result<Self, WireError>;
    /// What an absent key decodes to; `None` makes the key required.
    fn absent() -> Option<Self> {
        None
    }
    /// Whether the encoder leaves the key out.
    fn omitted(&self) -> bool {
        false
    }
}

impl Wire for u64 {
    const KIND: &'static str = "non-negative integer";
    fn to_wire(&self) -> Json {
        Json::uint(*self)
    }
    fn from_wire(v: &Json) -> Result<Self, WireError> {
        v.as_u64().ok_or(WireError::Kind(Self::KIND))
    }
}

impl Wire for u32 {
    const KIND: &'static str = u64::KIND;
    fn to_wire(&self) -> Json {
        Json::uint(u64::from(*self))
    }
    fn from_wire(v: &Json) -> Result<Self, WireError> {
        u32::try_from(u64::from_wire(v)?).map_err(|_| WireError::Range)
    }
}

impl Wire for f64 {
    const KIND: &'static str = "number";
    fn to_wire(&self) -> Json {
        Json::float(*self)
    }
    fn from_wire(v: &Json) -> Result<Self, WireError> {
        v.as_f64().ok_or(WireError::Kind(Self::KIND))
    }
}

impl Wire for bool {
    const KIND: &'static str = "boolean";
    fn to_wire(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_wire(v: &Json) -> Result<Self, WireError> {
        v.as_bool().ok_or(WireError::Kind(Self::KIND))
    }
}

impl Wire for String {
    const KIND: &'static str = "string";
    fn to_wire(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_wire(v: &Json) -> Result<Self, WireError> {
        v.as_str()
            .map(str::to_string)
            .ok_or(WireError::Kind(Self::KIND))
    }
}

/// An inline `bitfusion-model/1` document.
impl Wire for Model {
    const KIND: &'static str = "object";
    fn to_wire(&self) -> Json {
        export_model(self)
    }
    fn from_wire(v: &Json) -> Result<Self, WireError> {
        model_from_json(v).map_err(WireError::Msg)
    }
}

impl<T: Wire> Wire for Vec<T> {
    const KIND: &'static str = "array";
    fn to_wire(&self) -> Json {
        Json::Arr(self.iter().map(T::to_wire).collect())
    }
    fn from_wire(v: &Json) -> Result<Self, WireError> {
        v.as_arr()
            .ok_or(WireError::NotArray)?
            .iter()
            .map(|entry| {
                T::from_wire(entry).map_err(|e| match e {
                    WireError::Kind(kind) => WireError::Entry(kind),
                    e => e,
                })
            })
            .collect()
    }
}

impl<T: Wire> Wire for Option<T> {
    const KIND: &'static str = T::KIND;
    fn to_wire(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_wire)
    }
    fn from_wire(v: &Json) -> Result<Self, WireError> {
        T::from_wire(v).map(Some)
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
    fn omitted(&self) -> bool {
        self.is_none()
    }
}

/// Appends `key` unless the value is omitted.
fn put<T: Wire>(pairs: &mut Pairs, key: &str, value: &T) {
    if !value.omitted() {
        pairs.push((key.to_string(), value.to_wire()));
    }
}

/// The sub-object `group` the previous field opened, or a new one.
fn group_mut<'a>(pairs: &'a mut Pairs, group: &str) -> &'a mut Pairs {
    if !matches!(pairs.last(), Some((k, Json::Obj(_))) if k == group) {
        pairs.push((group.to_string(), Json::Obj(Vec::new())));
    }
    match pairs.last_mut() {
        Some((_, Json::Obj(inner))) => inner,
        _ => unreachable!("the group object was just pushed"),
    }
}

/// Reads `key`; `default` supplies an absent key's value (`None`: the
/// key is required).
fn take<T: Wire>(doc: &Json, key: &str, default: impl Fn() -> Option<T>) -> Result<T, String> {
    match doc.get(key) {
        None => default().ok_or_else(|| format!("missing {} field `{key}`", T::KIND)),
        Some(v) => T::from_wire(v).map_err(|e| e.at(key, default().is_none())),
    }
}

/// Rejects duplicate keys, and keys no field declares, in `doc` and in
/// its sub-object groups. `tag` is the discriminant key a message
/// carries besides its fields.
fn check_keys(doc: &Json, owner: &str, tag: Option<&str>, fields: &[Keys]) -> Result<(), String> {
    let top = fields.iter().flat_map(|(keys, _)| keys.iter().copied());
    check_pairs(doc, owner, tag, top)?;
    for (i, (keys, sub)) in fields.iter().enumerate() {
        // Each group once, at its first field.
        if sub.is_some() && (i == 0 || fields[i - 1].0 != *keys) {
            let subs = fields.iter().filter(|f| f.0 == *keys).filter_map(|f| f.1);
            if let Some(inner) = doc.get(keys[0]) {
                check_pairs(inner, keys[0], None, subs)?;
            }
        }
    }
    Ok(())
}

fn check_pairs<'a>(
    doc: &Json,
    owner: &str,
    tag: Option<&str>,
    allowed: impl Iterator<Item = &'a str> + Clone,
) -> Result<(), String> {
    let Json::Obj(pairs) = doc else {
        return Ok(()); // the field decoders name the wrong kind
    };
    for (i, (key, _)) in pairs.iter().enumerate() {
        if pairs[..i].iter().any(|(seen, _)| seen == key) {
            return Err(format!("duplicate field `{key}` for `{owner}`"));
        }
        if tag != Some(key.as_str()) && !allowed.clone().any(|k| k == key) {
            let mut names: Vec<&str> = allowed.collect();
            names.dedup();
            return Err(if names.is_empty() {
                format!("unknown field `{key}` for `{owner}` (takes no fields)")
            } else {
                format!(
                    "unknown field `{key}` for `{owner}` (allowed: {})",
                    names.join(", ")
                )
            });
        }
    }
    Ok(())
}

/// Declares wire types: a struct (`pub struct Name { fields }`), a
/// message enum tagged by a discriminant key (`pub enum Name(tag) {
/// Variant = "wire" ... }`, each variant a unit, a `(Struct)` newtype or a
/// `{ fields }` body), or a string enum (`pub enum Name: "what" { Variant
/// = "spelling" }`). A field is `name: Type [rule] = default`, rule and
/// default optional; the module docs give the rules.
macro_rules! wire {
    // One field's keys, encoder and decoder, by rule.
    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident as $k:literal) => { $k };
    (@key $f:ident omit_empty) => { stringify!($f) };
    (@key $f:ident in $g:literal) => { stringify!($f) };
    (@key $f:ident in $g:literal as $k:literal) => { $k };
    (@keys $f:ident $t:ty [flat]) => { (<$t>::KEYS, None) };
    (@keys $f:ident $t:ty [in $g:literal $($as:tt)*]) => {
        (&[$g], Some(wire!(@key $f in $g $($as)*)))
    };
    (@keys $f:ident $t:ty [$($rule:tt)*]) => { (&[wire!(@key $f $($rule)*)], None) };
    (@put $pairs:expr, $v:expr, $f:ident [flat]) => { $v.put_fields($pairs) };
    (@put $pairs:expr, $v:expr, $f:ident [omit_empty]) => {
        if !$v.is_empty() {
            put($pairs, stringify!($f), $v)
        }
    };
    (@put $pairs:expr, $v:expr, $f:ident [in $g:literal $($as:tt)*]) => {
        put(group_mut($pairs, $g), wire!(@key $f in $g $($as)*), $v)
    };
    (@put $pairs:expr, $v:expr, $f:ident [$($rule:tt)*]) => {
        put($pairs, wire!(@key $f $($rule)*), $v)
    };
    (@take $doc:ident $f:ident $t:ty [flat]) => { <$t>::take_fields($doc) };
    (@take $doc:ident $f:ident $t:ty [omit_empty]) => {
        take::<$t>($doc, stringify!($f), || Some(Vec::new()))
    };
    (@take $doc:ident $f:ident $t:ty [in $g:literal $($as:tt)*]) => {{
        let group = $doc.get($g).ok_or(concat!("missing object field `", $g, "`"))?;
        take::<$t>(group, wire!(@key $f in $g $($as)*), <$t as Wire>::absent)
    }};
    (@take $doc:ident $f:ident $t:ty [$($rule:tt)*]) => {
        take::<$t>($doc, wire!(@key $f $($rule)*), <$t as Wire>::absent)
    };
    (@take $doc:ident $f:ident $t:ty [$($rule:tt)*] = $d:expr) => {
        take::<$t>($doc, wire!(@key $f $($rule)*), || Some($d))
    };

    // One message variant's match pattern, encoder and decoder, by shape.
    (@wild $v:ident) => { Self::$v };
    (@wild $v:ident ($inner:ty)) => { Self::$v(_) };
    (@wild $v:ident { $($f:ident)* }) => { Self::$v { .. } };
    (@bind $x:ident $v:ident) => { Self::$v };
    (@bind $x:ident $v:ident ($inner:ty)) => { Self::$v($x) };
    (@bind $x:ident $v:ident { $($f:ident)* }) => { Self::$v { $($f),* } };
    (@put_variant $pairs:ident $x:ident) => { () };
    (@put_variant $pairs:ident $x:ident ($inner:ty)) => { $x.put_fields(&mut $pairs) };
    (@put_variant $pairs:ident $x:ident { $($f:ident [$($rule:tt)*])* }) => {{
        $(wire!(@put &mut $pairs, $f, $f [$($rule)*]);)*
    }};
    (@take_variant $doc:ident $owner:literal $tag:ident $v:ident) => {{
        check_keys($doc, $owner, Some(stringify!($tag)), &[])?;
        Ok(Self::$v)
    }};
    (@take_variant $doc:ident $owner:literal $tag:ident $v:ident ($inner:ty)) => {{
        check_keys($doc, $owner, Some(stringify!($tag)), <$inner>::FIELDS)?;
        Ok(Self::$v(<$inner>::take_fields($doc)?))
    }};
    (@take_variant $doc:ident $owner:literal $tag:ident $v:ident {
        $($f:ident $t:ty [$($rule:tt)*] $(= $d:expr)?),*
    }) => {{
        const FIELDS: &[Keys] = &[$(wire!(@keys $f $t [$($rule)*])),*];
        check_keys($doc, $owner, Some(stringify!($tag)), FIELDS)?;
        Ok(Self::$v { $($f: wire!(@take $doc $f $t [$($rule)*] $(= $d)?)?),* })
    }};

    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* $f:ident: $t:ty $([$($rule:tt)*])? $(= $d:expr)?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $f: $t,)*
        }

        impl $name {
            const FIELDS: &'static [Keys] = &[$(wire!(@keys $f $t [$($($rule)*)?])),*];

            fn put_fields(&self, pairs: &mut Pairs) {
                $(wire!(@put pairs, &self.$f, $f [$($($rule)*)?]);)*
            }

            fn take_fields(doc: &Json) -> Result<Self, String> {
                Ok($name { $($f: wire!(@take doc $f $t [$($($rule)*)?] $(= $d)?)?,)* })
            }
        }

        impl Wire for $name {
            const KIND: &'static str = "object";
            fn to_wire(&self) -> Json {
                let mut pairs = Vec::with_capacity(Self::FIELDS.len());
                self.put_fields(&mut pairs);
                Json::Obj(pairs)
            }
            fn from_wire(v: &Json) -> Result<Self, WireError> {
                if !matches!(v, Json::Obj(_)) {
                    return Err(WireError::Kind(Self::KIND));
                }
                check_keys(v, stringify!($name), None, Self::FIELDS)
                    .and_then(|()| Self::take_fields(v))
                    .map_err(WireError::Msg)
            }
        }
    };

    (
        $(#[$meta:meta])*
        pub enum $name:ident($tag:ident) {
            $($(#[$vmeta:meta])* $v:ident = $wire:literal $(($inner:ty))? $({
                $($(#[$fmeta:meta])* $f:ident: $t:ty $([$($rule:tt)*])? $(= $d:expr)?),* $(,)?
            })?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $v $(($inner))? $({ $($(#[$fmeta])* $f: $t),* })?,)*
        }

        impl $name {
            #[doc = concat!("The `", stringify!($tag), "` discriminant.")]
            pub const fn $tag(&self) -> &'static str {
                match self {
                    $(wire!(@wild $v $(($inner))? $({ $($f)* })?) => $wire,)*
                }
            }

            /// Encodes to the single-line wire form.
            pub fn encode(&self) -> String {
                let mut pairs = vec![(
                    stringify!($tag).to_string(),
                    Json::Str(self.$tag().to_string()),
                )];
                match self {
                    $(wire!(@bind inner $v $(($inner))? $({ $($f)* })?) => {
                        wire!(@put_variant pairs inner $(($inner))? $({ $($f [$($($rule)*)?])* })?)
                    })*
                }
                Json::Obj(pairs).encode()
            }

            /// Parses the wire text.
            ///
            /// # Errors
            ///
            /// Reports JSON syntax errors with a byte offset, and protocol
            /// errors naming the offending field.
            pub fn parse(text: &str) -> Result<Self, String> {
                let doc = &parse_json(text).map_err(|e| format!("invalid JSON: {e}"))?;
                let tag = doc
                    .get(stringify!($tag))
                    .and_then(Json::as_str)
                    .ok_or(concat!("missing string field `", stringify!($tag), "`"))?;
                match tag {
                    $($wire => wire!(@take_variant doc $wire $tag $v $(($inner))? $({
                        $($f $t [$($($rule)*)?] $(= $d)?),*
                    })?),)*
                    other => Err(format!(
                        concat!("unknown ", stringify!($tag), " `{}` ({})"),
                        other,
                        [$($wire),*].join("|")
                    )),
                }
            }
        }
    };

    (
        $(#[$meta:meta])*
        pub enum $name:ident: $what:literal {
            $($(#[$vmeta:meta])* $v:ident = $wire:literal),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $v,)*
        }

        impl $name {
            /// Wire / CLI spelling.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $(Self::$v => $wire,)*
                }
            }

            /// Parses the wire / CLI spelling.
            ///
            /// # Errors
            ///
            /// Names the unknown value.
            pub fn parse(s: &str) -> Result<Self, String> {
                match s {
                    $($wire => Ok(Self::$v),)*
                    other => Err(format!(
                        concat!("unknown ", $what, " `{}` ({})"),
                        other,
                        [$($wire),*].join("|")
                    )),
                }
            }
        }

        impl Wire for $name {
            const KIND: &'static str = "string";
            fn to_wire(&self) -> Json {
                Json::Str(self.as_str().to_string())
            }
            fn from_wire(v: &Json) -> Result<Self, WireError> {
                let s = v.as_str().ok_or(WireError::Kind(Self::KIND))?;
                Self::parse(s).map_err(WireError::Msg)
            }
        }
    };
}

wire! {
    /// Which simulation backend evaluates a request.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BackendChoice: "backend" {
        /// The closed-form analytic model (the default: cheap, sweep-friendly).
        Analytic = "analytic",
        /// The trace-driven event model (stall attribution, occupancy).
        Event = "event",
    }
}

wire! {
    /// Which preset architecture a `report`/`asm` request runs on.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum ArchPreset: "arch" {
        /// The paper's 45 nm, 512-Fusion-Unit configuration.
        #[default]
        Isca45nm = "45nm",
        /// The 16 nm GPU-comparison configuration.
        Gpu16nm = "16nm",
        /// The Stripes-matched configuration (980 MHz).
        StripesMatched = "stripes",
    }
}

wire! {
    /// Which axis a `sweep` request walks.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SweepAxis: "sweep axis" {
        /// Batch size at fixed architecture (Figure 16).
        Batch = "batch",
        /// Off-chip bandwidth at fixed batch (Figure 15).
        Bandwidth = "bandwidth",
    }
}

/// What a simulating request runs: a zoo benchmark by name, or an
/// external model carried inline as its `bitfusion-model/1` document.
///
/// On the wire the two spellings are mutually exclusive fields of the
/// request object — `"benchmark":"lstm"` names a zoo network,
/// `"model":{"format":"bitfusion-model/1",...}` embeds an external one
/// (the same document `--model model.json` reads from disk). A request
/// carrying both, or neither, is rejected by name.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSource {
    /// A benchmark of the built-in zoo, resolved case-insensitively.
    Zoo(String),
    /// A parsed external model (the `--model model.json` path). External
    /// models flow through the same caches as zoo networks, keyed by
    /// structural fingerprint — never by display name.
    External(Model),
}

impl ModelSource {
    /// The keys a source may occupy, as a `[flat]` field.
    const KEYS: &'static [&'static str] = &["benchmark", "model"];

    /// A zoo source by name.
    pub fn zoo(name: impl Into<String>) -> Self {
        ModelSource::Zoo(name.into())
    }

    /// The name shown in replies and error messages (the zoo name as
    /// given, or the external model's own `name`).
    pub fn display_name(&self) -> &str {
        match self {
            ModelSource::Zoo(name) => name,
            ModelSource::External(m) => &m.name,
        }
    }

    /// Pushes `"benchmark":"name"` for zoo sources, or `"model":{…}` (the
    /// full model document) for external ones.
    fn put_fields(&self, pairs: &mut Pairs) {
        pairs.push(match self {
            ModelSource::Zoo(name) => ("benchmark".to_string(), Json::Str(name.clone())),
            ModelSource::External(m) => ("model".to_string(), export_model(m)),
        });
    }

    /// Reads exactly one of `benchmark` (a zoo name) or `model` (an inline
    /// model document).
    fn take_fields(doc: &Json) -> Result<Self, String> {
        match (doc.get("benchmark"), doc.get("model")) {
            (Some(_), Some(_)) => Err("give either `benchmark` or `model`, not both".to_string()),
            (None, None) => Err("missing field `benchmark` (or an inline `model`)".to_string()),
            (Some(b), None) => Ok(ModelSource::Zoo(
                b.as_str()
                    .map(str::to_string)
                    .ok_or("field `benchmark` must be a string")?,
            )),
            (None, Some(m)) => Ok(ModelSource::External(model_from_json(m)?)),
        }
    }
}

/// The batch size a `report`, `compare` or `asm` request runs when it
/// names none (also `dse`'s default batch list).
pub const DEFAULT_BATCH: u64 = 16;

wire! {
    /// Parameters of a `dse` request: the architecture grid (comma lists on
    /// the CLI, arrays on the wire) crossed with networks and batch sizes.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DseParams {
        /// Array-row candidates.
        rows: Vec<u64> = vec![16, 32],
        /// Array-column candidates.
        cols: Vec<u64> = vec![8, 16],
        /// IBUF capacities in KB.
        ibuf_kb: Vec<u64> = vec![32],
        /// WBUF capacities in KB.
        wbuf_kb: Vec<u64> = vec![64],
        /// OBUF capacities in KB.
        obuf_kb: Vec<u64> = vec![16],
        /// Off-chip bandwidths in bits/cycle.
        bandwidth: Vec<u64> = vec![64, 128, 256],
        /// Batch sizes.
        batches: Vec<u64> = vec![DEFAULT_BATCH],
        /// Quantization policies (compact spellings: presets or clause
        /// lists), crossed with every network.
        quants: Vec<String> = vec!["paper".to_string()],
        /// Benchmark names, or `None` for the whole zoo (or, when external
        /// `models` are given and no networks are named, none of the zoo).
        networks: Option<Vec<String>>,
        /// External models explored alongside the named networks (wire:
        /// `"models":[{model doc},...]`, CLI: repeated `--model` flags).
        models: Vec<Model> [omit_empty],
        /// Worker threads (0 = all cores).
        workers: u64 = 0,
        /// Backend override (session default when absent).
        backend: Option<BackendChoice>,
    }
}

/// The declared defaults: what `{"cmd":"dse"}` decodes to.
impl Default for DseParams {
    fn default() -> Self {
        DseParams::take_fields(&Json::Obj(Vec::new())).expect("every DseParams field has a default")
    }
}

wire! {
    /// One operation the service can perform.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request(cmd) {
        /// Enumerate the benchmark zoo and preset architectures.
        List = "list",
        /// Simulate one model on one architecture.
        Report = "report" {
            /// What to run: a zoo benchmark or an external model.
            model: ModelSource [flat],
            /// Batch size.
            batch: u64 = DEFAULT_BATCH,
            /// Off-chip bandwidth override in bits/cycle.
            bandwidth: Option<u32>,
            /// Preset architecture.
            arch: ArchPreset = ArchPreset::default(),
            /// Backend override (session default when absent).
            backend: Option<BackendChoice>,
            /// Quantization override (compact spelling; paper assignment when
            /// absent).
            quant: Option<String>,
        },
        /// Compare one model against the Eyeriss/Stripes/GPU baselines.
        Compare = "compare" {
            /// What to run: a zoo benchmark or an external model.
            model: ModelSource [flat],
            /// Batch size.
            batch: u64 = DEFAULT_BATCH,
            /// Backend override (session default when absent).
            backend: Option<BackendChoice>,
            /// Quantization override for the Bit Fusion and Stripes sides
            /// (the 16-bit Eyeriss/GPU references are precision-blind).
            quant: Option<String>,
        },
        /// Dump the compiled Fusion-ISA assembly.
        Asm = "asm" {
            /// What to compile: a zoo benchmark or an external model.
            model: ModelSource [flat],
            /// Batch size.
            batch: u64 = DEFAULT_BATCH,
            /// Preset architecture the code is compiled for.
            arch: ArchPreset = ArchPreset::default(),
            /// Restrict output to one layer.
            layer: Option<String>,
        },
        /// Walk one sensitivity axis (Figure 15/16).
        Sweep = "sweep" {
            /// What to run: a zoo benchmark or an external model.
            model: ModelSource [flat],
            /// The swept axis.
            axis: SweepAxis,
            /// Backend override (session default when absent).
            backend: Option<BackendChoice>,
            /// Quantization override (paper assignment when absent).
            quant: Option<String>,
        },
        /// Explore an architecture grid and reduce to a Pareto frontier.
        Dse = "dse" (DseParams),
        /// Show what a quantization policy assigns to one model's layers.
        Quantize = "quantize" {
            /// What to quantize: a zoo benchmark or an external model.
            model: ModelSource [flat],
            /// Quantization policy (compact spelling; paper assignment when
            /// absent).
            quant: Option<String>,
        },
        /// Live server counters: cache tiers, admission queue, latency
        /// percentiles. Answered by the network server
        /// (`serve --listen`/`--unix`); a plain [`crate::Session`] has no
        /// server counters and answers with an error. The reply is the one
        /// deliberate exception to the byte-determinism contract — it reports
        /// live state, so identical `stats` requests may differ.
        Stats = "stats",
        /// Admin request: stop accepting connections, drain in-flight work,
        /// exit. Only honoured over a unix socket (a remote TCP client must
        /// not be able to stop the server); elsewhere it answers an error.
        Shutdown = "shutdown",
    }
}

wire! {
    /// An architecture as the protocol reports it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ArchInfo {
        /// Configuration name.
        name: String,
        /// Array rows.
        rows: u64,
        /// Array columns.
        cols: u64,
        /// IBUF capacity in KB.
        ibuf_kb: u64,
        /// WBUF capacity in KB.
        wbuf_kb: u64,
        /// OBUF capacity in KB.
        obuf_kb: u64,
        /// Off-chip bandwidth in bits/cycle.
        bandwidth_bits_per_cycle: u64,
        /// Clock frequency in MHz.
        freq_mhz: u64,
    }
}

wire! {
    /// An energy breakdown on the wire (the Figure 14 categories, in pJ).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct EnergyInfo {
        /// Datapath energy.
        compute_pj: f64,
        /// On-chip buffer energy.
        buffer_pj: f64,
        /// Register/pipeline-register energy.
        rf_pj: f64,
        /// Off-chip DRAM energy.
        dram_pj: f64,
    }
}

impl EnergyInfo {
    /// Total across the four categories.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.buffer_pj + self.rf_pj + self.dram_pj
    }
}

wire! {
    /// Stall attribution on the wire.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct StallInfo {
        /// Cycles the array starved for off-chip data.
        bandwidth_starved: u64,
        /// Cycles the DMA engine waited on compute.
        compute_starved: u64,
        /// Systolic fill/drain cycles.
        fill_drain: u64,
    }
}

wire! {
    /// One layer's result inside a [`Response::Report`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LayerInfo {
        /// Layer/group name.
        name: String,
        /// Total cycles.
        cycles: u64,
        /// Compute-model cycles.
        compute_cycles: u64,
        /// DMA-model cycles.
        dma_cycles: u64,
        /// Multiply-accumulates.
        macs: u64,
        /// Off-chip bits moved.
        dram_bits: u64,
        /// Whether the layer was bandwidth-bound.
        bandwidth_bound: bool,
    }
}

wire! {
    /// One zoo entry inside a [`Response::Benchmarks`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct BenchmarkInfo {
        /// Display name.
        name: String,
        /// Layer count.
        layers: u64,
        /// MACs per input.
        macs: u64,
        /// Weight storage in bytes.
        weight_bytes: u64,
    }
}

wire! {
    /// The full result of a `report` request.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ReportReply {
        /// Benchmark display name.
        benchmark: String,
        /// Batch size simulated.
        batch: u64,
        /// Backend that ran.
        backend: BackendChoice,
        /// Quantization override the request named (canonical spelling),
        /// absent for the paper default.
        quant: Option<String>,
        /// The architecture simulated.
        arch: ArchInfo,
        /// Total cycles for the batch.
        cycles: u64,
        /// Total MACs.
        macs: u64,
        /// Total off-chip bits.
        dram_bits: u64,
        /// Latency per input in milliseconds.
        latency_ms_per_input: f64,
        /// Achieved MACs per cycle.
        macs_per_cycle: f64,
        /// Energy per input.
        energy_per_input: EnergyInfo,
        /// Whole-run stall attribution.
        stalls: StallInfo,
        /// Layer evaluations answered by a layer-tier key another layer of the
        /// same plan also resolves to (repeated shapes — e.g. ResNet basic
        /// blocks). Spec-level and warmth-independent, like
        /// [`DseReply::compile_hits`].
        layer_hits: u64 [in "layer_cache" as "hits"],
        /// Unique layer-tier keys the plan resolves to — the evaluations a
        /// cold session would perform.
        layer_misses: u64 [in "layer_cache" as "misses"],
        /// Per-layer results in execution order.
        layers: Vec<LayerInfo>,
    }
}

wire! {
    /// One baseline entry inside a [`Response::Compare`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct BaselineComparison {
        /// Baseline name.
        name: String,
        /// Bit Fusion's speedup over the baseline.
        speedup: f64,
        /// Baseline-energy / BitFusion-energy, when the baseline has an energy
        /// model.
        energy_ratio: Option<f64>,
    }
}

wire! {
    /// The full result of a `compare` request.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CompareReply {
        /// Benchmark display name.
        benchmark: String,
        /// Batch size.
        batch: u64,
        /// Backend that ran the Bit Fusion side.
        backend: BackendChoice,
        /// Quantization override applied to the Bit Fusion and Stripes sides,
        /// absent for the paper default.
        quant: Option<String>,
        /// Bit Fusion latency per input, 45 nm configuration, in ms.
        latency_ms_per_input: f64,
        /// Bit Fusion energy per input, 45 nm configuration.
        energy_per_input: EnergyInfo,
        /// Per-baseline comparisons.
        baselines: Vec<BaselineComparison>,
    }
}

wire! {
    /// One disassembled block inside a [`Response::Asm`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AsmBlock {
        /// Layer/group name the block implements.
        layer: String,
        /// Fusion-ISA assembly text.
        text: String,
    }
}

wire! {
    /// The full result of an `asm` request.
    #[derive(Debug, Clone, PartialEq)]
    pub struct AsmReply {
        /// Benchmark display name.
        benchmark: String,
        /// Batch size compiled for.
        batch: u64,
        /// Blocks in execution order (filtered when the request named a layer).
        blocks: Vec<AsmBlock>,
    }
}

wire! {
    /// One point inside a [`Response::Sweep`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct SweepPointInfo {
        /// The swept value (batch size or bits/cycle).
        value: u64,
        /// Total cycles at that value.
        cycles: u64,
        /// Cycles per input at that value.
        cycles_per_input: f64,
        /// Speedup vs the axis baseline (total for bandwidth, per-input for
        /// batch).
        speedup: f64,
    }
}

wire! {
    /// The full result of a `sweep` request.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SweepReply {
        /// Benchmark display name.
        benchmark: String,
        /// The swept axis.
        axis: SweepAxis,
        /// Backend that ran.
        backend: BackendChoice,
        /// Quantization override the request named, absent for the paper
        /// default.
        quant: Option<String>,
        /// The baseline value speedups are relative to.
        baseline: u64,
        /// Layer evaluations across the sweep answered by a layer-tier key
        /// another layer of the same sweep also resolves to. Spec-level and
        /// warmth-independent, like [`DseReply::compile_hits`].
        layer_hits: u64 [in "layer_cache" as "hits"],
        /// Unique layer-tier keys the sweep resolves to.
        layer_misses: u64 [in "layer_cache" as "misses"],
        /// Points in sweep order.
        points: Vec<SweepPointInfo>,
    }
}

wire! {
    /// One Pareto-frontier entry inside a [`Response::Dse`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct FrontierPoint {
        /// The architecture.
        arch: ArchInfo,
        /// Quantization policy of the candidate (canonical spelling).
        quant: String,
        /// Cycles summed over the workload suite.
        cycles: u64,
        /// Energy summed over the workload suite, in pJ.
        energy_pj: f64,
        /// Chip area in mm².
        area_mm2: f64,
        /// Bandwidth-starved stall cycles over the suite.
        bandwidth_starved: u64,
        /// Compute-starved stall cycles over the suite.
        compute_starved: u64,
    }
}

wire! {
    /// One infeasible corner reported inside a [`Response::Dse`] (the reply
    /// carries a bounded sample; the count covers the rest).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct InfeasibleInfo {
        /// Network that failed at this corner.
        model: String,
        /// The architecture, in its display form.
        arch: String,
        /// Why the point is infeasible.
        error: String,
    }
}

wire! {
    /// One entry of a `dse` reply's quantization comparison: how one policy
    /// fares against the baseline on one network, summed over every
    /// architecture and batch.
    #[derive(Debug, Clone, PartialEq)]
    pub struct QuantSpeedupInfo {
        /// Network name.
        model: String,
        /// The candidate quantization policy.
        quant: String,
        /// `baseline cycles / candidate cycles` (> 1 means faster).
        speedup: f64,
        /// `baseline energy / candidate energy` (> 1 means less energy).
        energy_ratio: f64,
    }
}

wire! {
    /// The full result of a `dse` request.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DseReply {
        /// Backend that ran the evaluations.
        backend: BackendChoice,
        /// Quantization policies explored (canonical spellings, spec order).
        quants: Vec<String>,
        /// The policy [`DseReply::quant_speedups`] is measured against
        /// (`uniform8` when explored, the first policy otherwise); absent when
        /// only one policy was explored.
        speedup_baseline: Option<String>,
        /// Per-network speedup/energy of every non-baseline policy vs the
        /// baseline; empty when only one policy was explored.
        quant_speedups: Vec<QuantSpeedupInfo> [omit_empty],
        /// Architectures in the grid.
        grid_points: u64,
        /// Points evaluated.
        points: u64,
        /// Points that failed validation or compilation.
        infeasible: u64,
        /// The first few infeasible corners with their reasons (spec order,
        /// bounded sample).
        infeasible_sample: Vec<InfeasibleInfo> [omit_empty],
        /// Compilable points served by an artifact another point of the same
        /// spec also resolves to. Spec-level and warmth-independent (not a
        /// cache counter): the same request always reports the same number,
        /// whatever the session's cache already holds.
        compile_hits: u64 [in "compile" as "hits"],
        /// Unique compilation artifacts the spec resolves to — the plans a
        /// per-point run would compile once each. Also spec-level (see the
        /// determinism contract in `bitfusion_service::session`).
        compile_misses: u64 [in "compile" as "misses"],
        /// Layer evaluations answered by a layer-tier key another layer of the
        /// same spec also resolves to — repeated shapes within a network,
        /// duplicate models, aliasing quant specs. Spec-level and
        /// warmth-independent, like [`DseReply::compile_hits`].
        layer_hits: u64 [in "layer_cache" as "hits"],
        /// Unique layer-tier keys the spec resolves to — the per-layer
        /// evaluations a cold session would perform.
        layer_misses: u64 [in "layer_cache" as "misses"],
        /// The Pareto frontier over (cycles, energy, area), in grid order.
        frontier: Vec<FrontierPoint>,
    }
}

wire! {
    /// One multiplying layer's assignment inside a [`Response::Quantize`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct QuantLayerInfo {
        /// Layer name.
        name: String,
        /// Layer kind tag (`conv`, `fc`, `lstm`, `rnn`).
        kind: String,
        /// Assigned input (activation) bits.
        input_bits: u64,
        /// Assigned weight bits.
        weight_bits: u64,
        /// Multiply-accumulates the layer performs per input.
        macs: u64,
    }
}

wire! {
    /// The full result of a `quantize` request: the per-layer assignment a
    /// policy produces on one benchmark, plus its storage footprint.
    #[derive(Debug, Clone, PartialEq)]
    pub struct QuantizeReply {
        /// Benchmark display name.
        benchmark: String,
        /// The resolved policy (canonical spelling).
        quant: String,
        /// Total multiply-accumulates per input (shape-derived, policy
        /// independent).
        total_macs: u64,
        /// Weight storage in bytes at the assigned widths.
        weight_bytes: u64,
        /// Fraction of MACs whose input and weight widths are ≤ 4 bits (the
        /// paper's Figure 1 statistic).
        share_le_4bit: f64,
        /// Per-layer assignments in execution order (multiplying layers
        /// only).
        layers: Vec<QuantLayerInfo>,
    }
}

wire! {
    /// One cache tier's live counters inside a [`Response::Stats`].
    ///
    /// Unlike the spec-level `layer_cache` counters on `report`/`sweep`/`dse`
    /// replies, these are the process-global cache's actual state and depend
    /// on everything the server has evaluated so far.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct CacheTierInfo {
        /// Lookups that found a live entry.
        hits: u64,
        /// Lookups that had to compute.
        misses: u64,
        /// Entries displaced by the LRU bound.
        evictions: u64,
        /// Entries currently resident.
        len: u64,
        /// Maximum resident entries.
        capacity: u64,
    }
}

wire! {
    /// Request-latency percentiles inside a [`Response::Stats`], derived from
    /// the server's fixed-bucket histogram.
    ///
    /// Percentiles are bucket upper bounds (powers of two in microseconds),
    /// so they are conservative: the reported pNN is ≥ the true pNN. All
    /// zeros when no request has completed yet.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct LatencyInfo {
        /// Requests recorded (admitted requests only; shed requests are not
        /// timed).
        count: u64,
        /// 50th-percentile latency upper bound, microseconds.
        p50_us: u64,
        /// 90th-percentile latency upper bound, microseconds.
        p90_us: u64,
        /// 99th-percentile latency upper bound, microseconds.
        p99_us: u64,
        /// Exact slowest observed request, microseconds.
        max_us: u64,
    }
}

wire! {
    /// The full result of a `stats` request: the network server's live
    /// counters.
    ///
    /// This reply is the deliberate exception to the byte-determinism
    /// contract — it reports live process state and two identical `stats`
    /// requests may answer differently. It still carries no timestamps, so a
    /// quiesced server answers reproducibly.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct StatsReply {
        /// Connections currently open.
        connections_active: u64 [in "connections" as "active"],
        /// Connections accepted since startup.
        connections_total: u64 [in "connections" as "total"],
        /// Workload requests received (parse failures included; server-level
        /// `stats`/`shutdown` requests are answered but not counted, so
        /// polling `stats` never perturbs what it reports).
        received: u64 [in "requests"],
        /// Requests answered with a non-`error` reply.
        ok: u64 [in "requests"],
        /// Requests answered with an `error` reply (parse failures, shed
        /// requests, and evaluation errors).
        errors: u64 [in "requests"],
        /// Requests refused by admission control (a subset of `errors`).
        shed: u64 [in "requests"],
        /// Always 0: the server evaluates every request itself. The field
        /// stays on the wire because the repo benchmark (`perfbench`) reads
        /// it for `net.coalesced_frac`; both go together.
        coalesced: u64 [in "requests"],
        /// Admissions currently waiting for a slot.
        queue_depth: u64 [in "queue" as "depth"],
        /// Maximum admissions that may wait before shedding starts.
        queue_capacity: u64 [in "queue" as "capacity"],
        /// Requests currently evaluating.
        in_flight: u64 [in "queue"],
        /// Evaluation slots (the admission gate's concurrency bound).
        workers: u64 [in "queue"],
        /// The compiled-plan cache tier (live counters).
        artifact_cache: CacheTierInfo,
        /// The layer-result cache tier (live counters).
        layer_cache: CacheTierInfo,
        /// Request-latency percentiles.
        latency: LatencyInfo [as "latency_us"],
    }
}

wire! {
    /// The result of one [`Request`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response(reply) {
        /// Answer to `list`.
        Benchmarks = "list" {
            /// The zoo, in paper order.
            benchmarks: Vec<BenchmarkInfo>,
            /// Preset architecture descriptions.
            architectures: Vec<String>,
        },
        /// Answer to `report`.
        Report = "report" (ReportReply),
        /// Answer to `compare`.
        Compare = "compare" (CompareReply),
        /// Answer to `asm`.
        Asm = "asm" (AsmReply),
        /// Answer to `sweep`.
        Sweep = "sweep" (SweepReply),
        /// Answer to `dse`.
        Dse = "dse" (DseReply),
        /// Answer to `quantize`.
        Quantize = "quantize" (QuantizeReply),
        /// Answer to `stats` (network server only).
        Stats = "stats" (StatsReply),
        /// Answer to `shutdown` (network server, unix socket only): the
        /// server acknowledged and is draining.
        Shutdown = "shutdown",
        /// The request could not be served.
        Error = "error" {
            /// What went wrong.
            message: String,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_wire_round_trip() {
        let external = bitfusion_dnn::schema::parse_model(
            r#"{"format":"bitfusion-model/1","name":"tiny","layers":[{"name":"fc1","kind":"fc","in_features":64,"out_features":32,"precision":"4/1"}]}"#,
        )
        .unwrap();
        let requests = vec![
            Request::List,
            Request::Report {
                model: ModelSource::zoo("LSTM"),
                batch: 16,
                bandwidth: Some(256),
                arch: ArchPreset::Isca45nm,
                backend: Some(BackendChoice::Event),
                quant: Some("uniform8".into()),
            },
            Request::Report {
                model: ModelSource::External(external.clone()),
                batch: 16,
                bandwidth: None,
                arch: ArchPreset::Isca45nm,
                backend: None,
                quant: None,
            },
            Request::Compare {
                model: ModelSource::zoo("AlexNet"),
                batch: 4,
                backend: None,
                quant: None,
            },
            Request::Asm {
                model: ModelSource::zoo("RNN"),
                batch: 1,
                arch: ArchPreset::StripesMatched,
                layer: Some("fc1".into()),
            },
            Request::Sweep {
                model: ModelSource::External(external.clone()),
                axis: SweepAxis::Bandwidth,
                backend: None,
                quant: Some("default=4/1,conv=2/2".into()),
            },
            Request::Dse(DseParams {
                quants: vec!["paper".into(), "uniform8".into(), "uniform16".into()],
                models: vec![external],
                ..DseParams::default()
            }),
            Request::Quantize {
                model: ModelSource::zoo("Cifar-10"),
                quant: Some("uniform16".into()),
            },
        ];
        for req in requests {
            let wire = req.encode();
            let back = Request::parse(&wire).unwrap();
            assert_eq!(back, req, "{wire}");
            assert_eq!(back.encode(), wire);
        }
    }

    #[test]
    fn terse_requests_fill_defaults() {
        let req = Request::parse(r#"{"cmd":"report","benchmark":"lstm"}"#).unwrap();
        assert_eq!(
            req,
            Request::Report {
                model: ModelSource::zoo("lstm"),
                batch: 16,
                bandwidth: None,
                arch: ArchPreset::Isca45nm,
                backend: None,
                quant: None,
            }
        );
        assert!(matches!(
            Request::parse(r#"{"cmd":"dse"}"#).unwrap(),
            Request::Dse(p) if p == DseParams::default()
        ));
        assert_eq!(
            Request::parse(r#"{"cmd":"quantize","benchmark":"svhn"}"#).unwrap(),
            Request::Quantize {
                model: ModelSource::zoo("svhn"),
                quant: None,
            }
        );
    }

    #[test]
    fn model_and_benchmark_are_mutually_exclusive() {
        let model = r#"{"format":"bitfusion-model/1","name":"net","layers":[{"name":"fc1","kind":"fc","in_features":8,"out_features":4,"precision":"8/8"}]}"#;
        let e = Request::parse(&format!(
            r#"{{"cmd":"report","benchmark":"lstm","model":{model}}}"#
        ))
        .unwrap_err();
        assert!(e.contains("not both"), "{e}");
        // An inline model alone parses to the external source.
        let req =
            Request::parse(&format!(r#"{{"cmd":"report","model":{model}}}"#)).unwrap();
        let Request::Report { model: ModelSource::External(m), .. } = req else {
            panic!("expected an external report");
        };
        assert_eq!(m.name, "net");
        // A malformed inline model reports the schema's located diagnostic.
        let e = Request::parse(
            r#"{"cmd":"report","model":{"format":"bitfusion-model/1","name":"net","layers":[{"name":"x","kind":"conv3d"}]}}"#,
        )
        .unwrap_err();
        assert!(e.contains("layers[0].kind"), "{e}");
    }

    #[test]
    fn errors_name_the_problem() {
        assert!(Request::parse("not json").unwrap_err().contains("invalid JSON"));
        assert!(Request::parse(r#"{"cmd":"frobnicate"}"#)
            .unwrap_err()
            .contains("frobnicate"));
        assert!(Request::parse(r#"{"cmd":"report"}"#)
            .unwrap_err()
            .contains("benchmark"));
        assert!(Request::parse(r#"{"cmd":"report","benchmark":"lstm","backend":"x"}"#)
            .unwrap_err()
            .contains("backend"));
    }

    #[test]
    fn misspelled_fields_are_rejected_not_defaulted() {
        // A typo'd field must error (like an unknown CLI flag), never fall
        // back to the default value silently.
        let e = Request::parse(r#"{"cmd":"report","benchmark":"rnn","bacth":8}"#).unwrap_err();
        assert!(e.contains("bacth") && e.contains("report"), "{e}");
        let e = Request::parse(r#"{"cmd":"sweep","benchmark":"rnn","axis":"batch","workers":2}"#)
            .unwrap_err();
        assert!(e.contains("workers") && e.contains("sweep"), "{e}");
        assert!(Request::parse(r#"{"cmd":"list","extra":1}"#).is_err());
        // A repeated field is an error too, never first-one-wins.
        let e = Request::parse(r#"{"cmd":"report","benchmark":"lstm","batch":1,"batch":2}"#)
            .unwrap_err();
        assert_eq!(e, "duplicate field `batch` for `report`");
        let e = Request::parse(r#"{"cmd":"list","cmd":"stats"}"#).unwrap_err();
        assert_eq!(e, "duplicate field `cmd` for `list`");
        // Replies decode as strictly, sub-objects included.
        let e = Response::parse(
            r#"{"reply":"sweep","benchmark":"RNN","axis":"batch","backend":"event","baseline":1,"layer_cache":{"hits":0,"hits":1,"misses":2},"points":[]}"#,
        )
        .unwrap_err();
        assert_eq!(e, "duplicate field `hits` for `layer_cache`");
    }

    #[test]
    fn quant_spec_json_forms() {
        let preset = QuantSpec::parse("uniform8").unwrap();
        let j = quant_spec_to_json(&preset);
        assert_eq!(j.encode(), r#"{"preset":"uniform8"}"#);
        assert_eq!(quant_spec_from_json(&j).unwrap(), preset);

        let custom = QuantSpec::parse("default=4/1,conv=2/2,layer:fc8=8/8").unwrap();
        let j = quant_spec_to_json(&custom);
        assert_eq!(quant_spec_from_json(&j).unwrap(), custom);
        assert!(j.encode().contains(r#""default":"4/1""#), "{}", j.encode());

        for bad in [
            r#"{"kinds":[{"kind":"pool","precision":"4/4"}]}"#,
            r#"{"default":"3/3"}"#,
            r#"{"preset":"uniform9"}"#,
            r#"{"preset":"paper","default":"4/4"}"#,
            r#"{}"#,
        ] {
            assert!(
                quant_spec_from_json(&parse_json(bad).unwrap()).is_err(),
                "{bad} accepted"
            );
        }
    }

    #[test]
    fn error_response_round_trip() {
        let resp = Response::Error {
            message: "unknown benchmark `nope`".into(),
        };
        let wire = resp.encode();
        assert_eq!(Response::parse(&wire).unwrap(), resp);
        assert!(wire.starts_with(r#"{"reply":"error""#));
    }

    #[test]
    fn stats_and_shutdown_requests_round_trip() {
        assert_eq!(Request::Stats.encode(), r#"{"cmd":"stats"}"#);
        assert_eq!(Request::parse(r#"{"cmd":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(Request::Shutdown.encode(), r#"{"cmd":"shutdown"}"#);
        assert_eq!(
            Request::parse(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        // Both take no fields.
        assert!(Request::parse(r#"{"cmd":"stats","extra":1}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"shutdown","force":true}"#).is_err());
    }

    #[test]
    fn stats_response_round_trip() {
        let resp = Response::Stats(StatsReply {
            connections_active: 2,
            connections_total: 17,
            received: 120,
            ok: 110,
            errors: 10,
            shed: 4,
            coalesced: 6,
            queue_depth: 1,
            queue_capacity: 64,
            in_flight: 3,
            workers: 4,
            artifact_cache: CacheTierInfo {
                hits: 80,
                misses: 20,
                evictions: 5,
                len: 15,
                capacity: 32,
            },
            layer_cache: CacheTierInfo {
                hits: 400,
                misses: 100,
                evictions: 0,
                len: 100,
                capacity: 4096,
            },
            latency: LatencyInfo {
                count: 110,
                p50_us: 512,
                p90_us: 2048,
                p99_us: 8192,
                max_us: 7311,
            },
        });
        let wire = resp.encode();
        assert_eq!(Response::parse(&wire).unwrap(), resp);
        assert!(wire.starts_with(r#"{"reply":"stats","connections":"#), "{wire}");
        // No timestamps on the wire: a quiesced server answers
        // reproducibly.
        assert!(!wire.contains("time"), "{wire}");
    }

    #[test]
    fn shutdown_response_round_trip() {
        assert_eq!(Response::Shutdown.encode(), r#"{"reply":"shutdown"}"#);
        assert_eq!(
            Response::parse(r#"{"reply":"shutdown"}"#).unwrap(),
            Response::Shutdown
        );
    }
}
