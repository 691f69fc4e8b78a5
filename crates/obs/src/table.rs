//! One statement per report column, three renderings of it.
//!
//! A report row type is stated once as a [`Table`]: an ordered list of
//! columns ([`Table::col`]), each giving its text header and layout,
//! its JSON key and its OpenMetrics family — any of which may be
//! absent — and how to read its [`Cell`] off a row. The aligned text
//! table, the JSON objects and arrays ([`Table::object`], [`document`])
//! and the OpenMetrics exposition ([`OpenMetrics`]) are renders of that
//! one statement, so float precision, key order, escaping, `%` columns
//! and alignment are decided here and nowhere else. The artifacts are
//! compared byte for byte across runs, so every layout is fixed: JSON
//! floats print six decimals, keys print in column order, and a
//! family's samples print in the order their rows were added.

use std::collections::BTreeMap;

/// One value in a report cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An integer.
    Int(i128),
    /// A float: the column's precision in text, six decimals in JSON.
    Float(f64),
    /// A fraction in `[0, 1]`: ×100 at the column's precision in text,
    /// the fraction to six decimals in JSON and as is in OpenMetrics.
    Share(f64),
    /// A string, escaped and quoted in JSON.
    Str(String),
    /// Already-rendered JSON (a nested object or array, a boolean,
    /// `null`, or a number printed as it is), inserted verbatim.
    Json(String),
}

impl Cell {
    /// The cell as unpadded text, floats at `prec` decimals.
    fn text(&self, prec: Option<usize>) -> String {
        match (self, prec) {
            (Cell::Float(v), Some(p)) => format!("{v:.p$}"),
            (Cell::Share(v), Some(p)) => format!("{:.p$}", v * 100.0),
            (Cell::Float(v), None) => v.to_string(),
            (Cell::Share(v), None) => (v * 100.0).to_string(),
            (Cell::Int(v), _) => v.to_string(),
            (Cell::Str(s) | Cell::Json(s), _) => s.clone(),
        }
    }

    /// The cell as a JSON value.
    pub fn json(&self) -> String {
        match self {
            Cell::Float(v) | Cell::Share(v) => format!("{v:.6}"),
            Cell::Str(s) => format!("\"{}\"", escape(s)),
            _ => self.text(None),
        }
    }

    /// The cell as an OpenMetrics sample value.
    fn number(&self) -> f64 {
        match self {
            Cell::Int(v) => *v as f64,
            Cell::Float(v) | Cell::Share(v) => *v,
            other => panic!("an OpenMetrics sample must be numeric, got {other:?}"),
        }
    }
}

macro_rules! cell_from {
    ($($t:ty => |$v:ident| $cell:expr),* $(,)?) => {$(
        impl From<$t> for Cell {
            fn from($v: $t) -> Self {
                $cell
            }
        }
    )*};
}

cell_from! {
    u64 => |v| Cell::Int(v.into()),
    u32 => |v| Cell::Int(v.into()),
    i64 => |v| Cell::Int(v.into()),
    usize => |v| Cell::Int(v as i128),
    f64 => |v| Cell::Float(v),
    bool => |v| Cell::Json(v.to_string()),
    &str => |v| Cell::Str(v.to_string()),
    String => |v| Cell::Str(v),
}

/// Escapes `s` for a JSON string or an OpenMetrics label value.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// A column's text layout, parsed from `"pre{head:>width.prec}post"`:
/// `pre` precedes the column on every line (the gap from its left
/// neighbour), `post` follows each value (a `%` or a unit), and the
/// header is padded to the width of value and `post` together.
struct Layout {
    pre: String,
    head: String,
    left: bool,
    width: usize,
    prec: Option<usize>,
    post: String,
}

impl Layout {
    fn parse(spec: &str) -> Self {
        let (pre, rest) = spec.split_once('{').expect("a text layout has `{`");
        let (inner, post) = rest.split_once('}').expect("a text layout has `}`");
        let (head, fmt) = inner.split_once(':').unwrap_or((inner, ""));
        let left = fmt.starts_with('<');
        let fmt = fmt.trim_start_matches(['<', '>']);
        let (width, prec) = match fmt.split_once('.') {
            Some((w, p)) => (w, Some(p.parse().expect("a precision is a number"))),
            None => (fmt, None),
        };
        Layout {
            pre: pre.to_string(),
            head: head.to_string(),
            left,
            width: width.parse().unwrap_or(0),
            prec,
            post: post.to_string(),
        }
    }

    /// `pre`, then `s` aligned in `width`.
    fn pad(&self, s: &str, width: usize) -> String {
        if self.left {
            format!("{}{s:<width$}", self.pre)
        } else {
            format!("{}{s:>width$}", self.pre)
        }
    }
}

/// Label names and values.
type Labels<'a> = &'a [(&'a str, &'a str)];

/// A column's OpenMetrics family.
struct Family {
    name: &'static str,
    /// Labels every sample of the column carries after the row's.
    fixed: Labels<'static>,
    help: &'static str,
    counter: bool,
}

/// One column of a report row type `R`, stated once.
struct Col<R> {
    text: Option<Layout>,
    key: &'static str,
    family: Option<Family>,
    get: Box<dyn Fn(&R) -> Cell>,
}

/// A report row type's columns, in order. Text columns print in their
/// order and JSON keys in theirs, so one list states both.
pub struct Table<R> {
    cols: Vec<Col<R>>,
}

impl<R> Default for Table<R> {
    fn default() -> Self {
        Table { cols: Vec::new() }
    }
}

impl<R> Table<R> {
    /// A table with no columns yet: `Table::<Row>::new().col(...)`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a column with text layout `text` (`""` for none) and JSON
    /// key `key` (`""` for none), whose value `get` reads off a row.
    ///
    /// `text` is the column's piece of a format string: `" {p999:>10}"`
    /// is a right-aligned `p999` column ten wide after one space,
    /// `"  {share:>5.1}%"` a share printed ×100 to one decimal and then
    /// a `%` under a header six wide, `"{app:<12}"` a left-aligned one.
    pub fn col<V: Into<Cell>>(
        mut self,
        text: &str,
        key: &'static str,
        get: impl Fn(&R) -> V + 'static,
    ) -> Self {
        self.cols.push(Col {
            text: (!text.is_empty()).then(|| Layout::parse(text)),
            key,
            family: None,
            get: Box::new(move |r| get(r).into()),
        });
        self
    }

    /// Also exports the last column added as gauge `name`, each sample
    /// labelled with its row's labels and then `fixed`.
    pub fn gauge(self, name: &'static str, fixed: Labels<'static>, help: &'static str) -> Self {
        self.export(name, fixed, help, false)
    }

    /// Also exports the last column added as counter `name` (its
    /// samples get `_total`).
    pub fn counter(self, name: &'static str, help: &'static str) -> Self {
        self.export(name, &[], help, true)
    }

    fn export(
        mut self,
        name: &'static str,
        fixed: Labels<'static>,
        help: &'static str,
        counter: bool,
    ) -> Self {
        let family = Family {
            name,
            fixed,
            help,
            counter,
        };
        self.cols.last_mut().expect("a column to export").family = Some(family);
        self
    }

    /// One text line: `cell` rendered for each text column.
    fn line(&self, cell: impl Fn(&Layout, &Col<R>) -> String) -> String {
        let text = self.cols.iter().filter_map(|c| Some((c.text.as_ref()?, c)));
        text.map(|(t, c)| cell(t, c)).collect()
    }

    /// The text header line (no newline).
    pub fn header(&self) -> String {
        self.line(|t, _| t.pad(&t.head, t.width + t.post.chars().count()))
    }

    /// `row` as a text line (no newline).
    pub fn row(&self, row: &R) -> String {
        self.line(|t, c| t.pad(&(c.get)(row).text(t.prec), t.width) + &t.post)
    }

    /// The header and then `rows`, one line each.
    pub fn text(&self, rows: &[R]) -> String {
        let rows = rows.iter().map(|r| self.row(r));
        let lines = std::iter::once(self.header()).chain(rows);
        lines.map(|l| l + "\n").collect()
    }

    /// `row` as an inline JSON object: `{"key": value, ...}`.
    pub fn object(&self, row: &R) -> Cell {
        let keyed = self.cols.iter().filter(|c| !c.key.is_empty());
        let fields: Vec<String> = keyed
            .map(|c| format!("\"{}\": {}", c.key, (c.get)(row).json()))
            .collect();
        Cell::Json(format!("{{{}}}", fields.join(", ")))
    }

    /// `rows` as an inline JSON array: `[{...},{...}]`.
    pub fn inline(&self, rows: &[R]) -> Cell {
        let items: Vec<String> = rows.iter().map(|r| self.object(r).json()).collect();
        Cell::Json(format!("[{}]", items.join(",")))
    }

    /// `rows` as a JSON array of one object per line, nested `depth`
    /// levels into the document: objects indented `2 * (depth + 1)`
    /// spaces, the closing `]` `2 * depth`.
    pub fn block(&self, rows: &[R], depth: usize) -> Cell {
        let items = rows.iter().map(|r| self.object(r).json());
        let indent = "  ".repeat(depth);
        let body = lines(&format!("{indent}  "), items);
        Cell::Json(format!("[\n{body}{indent}]"))
    }
}

/// `items` one per line at `indent`, comma-separated.
fn lines(indent: &str, items: impl Iterator<Item = String>) -> String {
    let items: Vec<String> = items.map(|i| format!("{indent}{i}")).collect();
    let mut out = items.join(",\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// A JSON document: `{`, one `"key": value` per line two spaces in,
/// `}` and a newline.
pub fn document<'a>(fields: impl IntoIterator<Item = (&'a str, Cell)>) -> String {
    let fields = fields
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": {}", v.json()));
    format!("{{\n{}}}\n", lines("  ", fields))
}

/// Rows' exported columns as an OpenMetrics text exposition: families
/// in name order, each family's samples in the order their rows were
/// added.
#[derive(Default)]
pub struct OpenMetrics {
    /// Family name → (help, counter?, sample lines).
    families: BTreeMap<&'static str, (&'static str, bool, Vec<String>)>,
}

impl OpenMetrics {
    /// Adds one sample per exported column of `row`, labelled `labels`
    /// (unescaped values) and then the column's fixed labels.
    pub fn row<R>(&mut self, table: &Table<R>, row: &R, labels: Labels) {
        for c in &table.cols {
            let Some(f) = &c.family else { continue };
            let pairs: Vec<String> = (labels.iter().chain(f.fixed))
                .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
                .collect();
            let block = if pairs.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", pairs.join(","))
            };
            let family = self.families.entry(f.name);
            let (_, counter, samples) = family.or_insert((f.help, f.counter, Vec::new()));
            assert_eq!(
                *counter, f.counter,
                "{}: family type must not change",
                f.name
            );
            let total = if f.counter { "_total" } else { "" };
            let value = (c.get)(row).number();
            samples.push(format!("{}{total}{block} {value}", f.name));
        }
    }

    /// The text exposition, `# EOF` included.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, (help, counter, samples)) in &self.families {
            let kind = if *counter { "counter" } else { "gauge" };
            out += &format!("# HELP {name} {help}\n# TYPE {name} {kind}\n");
            for s in samples {
                out += &format!("{s}\n");
            }
        }
        out + "# EOF\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row {
        name: &'static str,
        n: u64,
        share: f64,
    }

    fn table() -> Table<Row> {
        Table::<Row>::new()
            .col("{name:<6}", "name", |r| r.name)
            .col("  {n:>4}", "n", |r| r.n)
            .counter("pk_n", "rows counted")
            .col(" {share:>5.1}%", "share", |r| Cell::Share(r.share))
            .gauge("pk_share", &[("kind", "test")], "a share")
    }

    fn rows() -> [Row; 2] {
        [
            Row {
                name: "a",
                n: 7,
                share: 0.25,
            },
            Row {
                name: "odd\"name\\x",
                n: 12_345,
                share: 1.0,
            },
        ]
    }

    #[test]
    fn text_pads_header_and_cells_alike() {
        let text = table().text(&rows()[..1]);
        assert_eq!(text, "name       n  share\na          7  25.0%\n");
    }

    #[test]
    fn json_escapes_and_lays_out_arrays() {
        let t = table();
        let a = &rows()[1];
        assert_eq!(
            t.object(a).json(),
            r#"{"name": "odd\"name\\x", "n": 12345, "share": 1.000000}"#
        );
        let rows = rows();
        let inline = t.inline(&rows).json();
        assert!(inline.starts_with("[{\"name\": \"a\"") && inline.contains("},{"));
        assert_eq!(t.block(&rows[..0], 1).json(), "[\n  ]");
        let block = t.block(&rows, 2).json();
        assert!(block.starts_with("[\n      {") && block.contains("},\n      {"));
        assert!(block.ends_with("}\n    ]"), "{block}");
        let doc = document([("seed", 42u64.into()), ("rows", t.block(&rows, 1))]);
        assert!(doc.starts_with("{\n  \"seed\": 42,\n  \"rows\": [\n    {"));
        assert!(doc.ends_with("}\n  ]\n}\n"), "{doc}");
    }

    #[test]
    fn openmetrics_groups_families_and_carries_labels() {
        let t = table();
        let mut om = OpenMetrics::default();
        for r in &rows() {
            om.row(&t, r, &[("kernel", "stock"), ("name", r.name)]);
        }
        let text = om.render();
        let lines: Vec<&str> = text.lines().collect();
        // Families in name order, each contiguous, samples in row order.
        assert_eq!(lines[0], "# HELP pk_n rows counted");
        assert_eq!(lines[1], "# TYPE pk_n counter");
        assert_eq!(lines[2], "pk_n_total{kernel=\"stock\",name=\"a\"} 7");
        assert!(lines[3].contains("name=\"odd\\\"name\\\\x\"") && lines[3].ends_with(" 12345"));
        assert_eq!(lines[4], "# HELP pk_share a share");
        let first = "pk_share{kernel=\"stock\",name=\"a\",kind=\"test\"} 0.25";
        assert_eq!(lines[6], first);
        assert_eq!(*lines.last().unwrap(), "# EOF");
    }

    #[test]
    #[should_panic(expected = "family type must not change")]
    fn mixing_types_in_one_family_is_a_bug() {
        let counter = Table::<u64>::new().col("", "", |v| *v).counter("x", "h");
        let gauge = Table::<u64>::new().col("", "", |v| *v).gauge("x", &[], "h");
        let mut om = OpenMetrics::default();
        om.row(&counter, &1, &[]);
        om.row(&gauge, &1, &[]);
    }
}
