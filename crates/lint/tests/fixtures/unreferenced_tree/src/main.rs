fn main() {
    fixture::referenced();
}
