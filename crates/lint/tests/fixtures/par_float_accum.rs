use incam_parallel::par_map;

pub fn energy(rows: &[Vec<f32>]) -> f32 {
    let mut total = 0.0f32;
    par_map(rows.len(), |i| {
        let s: f32 = rows[i].iter().sum();
        total += s;
        s
    });
    total
}
