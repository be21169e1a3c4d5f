namespace demo {

int check_scaled_twice() {
  return scaled_twice(4) == 8 ? 0 : 1;
}

}  // namespace demo
